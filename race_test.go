//go:build race

package photonrail

const raceEnabled = true
