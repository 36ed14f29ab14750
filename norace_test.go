//go:build !race

package photonrail

const raceEnabled = false
