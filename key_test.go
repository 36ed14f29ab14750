package photonrail

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"photonrail/internal/model"
	"photonrail/internal/scenario"
	"photonrail/internal/topo"
	"photonrail/internal/workload"
)

// The cache-key property tests. Every keyed type lists its fields by
// hand in an appendKey method; these tests walk the type by reflection
// (the only place reflection touches a cache key), change each leaf
// field one at a time, and require the key to change. A field added to
// a keyed struct without being encoded fails here, as does an encoder
// that drops one.

// keyedWorkload sets every Workload field, so no mutation starts from
// a value the encoder might special-case.
func keyedWorkload() Workload {
	w := PaperWorkload(2)
	w.CP, w.EP = 2, 3
	w.EagerRS = true
	w.JitterFrac = 0.05
	w.UseGPipe = true
	return w
}

// keyedGrid has every dimension non-empty, so the walk reaches the
// fields of each slice element.
func keyedGrid() scenario.Grid {
	return scenario.Grid{
		Name:         "keyed",
		Models:       []model.Spec{model.Llama3_8B, model.Mixtral8x7B},
		GPUs:         []model.GPU{model.A100},
		Fabrics:      []scenario.FabricKind{scenario.Electrical, scenario.PhotonicProvisioned},
		LatenciesMS:  []float64{0, 10},
		Parallelisms: []scenario.Parallelism{{TP: 4, DP: 2, PP: 2, CP: 2, EP: 2}},
		Schedules:    []workload.Schedule{workload.OneFOneB, workload.GPipe},
		JitterFracs:  []float64{0.1},
		EagerRS:      []bool{false, true},
		NIC:          topo.FourPort100G,
		Microbatches: 12, MicrobatchSize: 2, Iterations: 3,
	}
}

func keyedParams() Params {
	spec := scenario.SpecOf(keyedGrid())
	return Params{Iterations: 2, WindowIterations: 5, LatenciesMS: []float64{1, 10}, Rail: 1, GPUs: 64, Grid: &spec}
}

// keyCases pairs each keyed type's fully-populated value with the key
// its cache path derives from it. ignored names the fields that are
// deliberately not keyed because they cannot change a result.
var keyCases = []struct {
	name    string
	value   func() any
	key     func(v any) string
	ignored []string
}{
	{"Workload", func() any { return keyedWorkload() },
		func(v any) string { return string(v.(Workload).appendKey(nil)) }, nil},
	{"Fabric", func() any { return Fabric{Kind: PhotonicRail, ReconfigLatencyMS: 10, Provision: true} },
		func(v any) string { return string(v.(Fabric).appendKey(nil)) }, nil},
	{"Params", func() any { return keyedParams() },
		func(v any) string { return ExperimentKey("fig8-5d", v.(Params)) }, []string{"OnProgress"}},
	{"GridSpec", func() any { return *keyedParams().Grid },
		func(v any) string { return string(v.(GridSpec).AppendKey(nil)) }, nil},
	{"scenario.Grid", func() any { return keyedGrid() },
		func(v any) string { return string(v.(scenario.Grid).AppendKey(nil)) }, nil},
}

func TestCacheKeysCoverEveryField(t *testing.T) {
	for _, tc := range keyCases {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.key(tc.value())
			if again := tc.key(tc.value()); again != base {
				t.Fatal("equal values gave different keys")
			}
			root := reflect.New(reflect.TypeOf(tc.value())).Elem()
			root.Set(reflect.ValueOf(tc.value()))
			leaves := 0
			forEachMutation(t, root, tc.name, tc.ignored, func(path string) {
				leaves++
				if tc.key(root.Interface()) == base {
					t.Errorf("changing %s leaves the key unchanged", path)
				}
			})
			if got := tc.key(root.Interface()); got != base {
				t.Fatal("walk did not restore the value")
			}
			if leaves == 0 {
				t.Fatal("no fields visited")
			}
		})
	}
}

// forEachMutation changes each leaf of v (and each slice's length, and
// each pointer's presence) in turn, calls visit with the field path,
// and restores the value before the next change.
func forEachMutation(t *testing.T, v reflect.Value, path string, ignored []string, visit func(path string)) {
	t.Helper()
	mutate := func(change func()) {
		saved := reflect.New(v.Type()).Elem()
		saved.Set(v)
		change()
		visit(path)
		v.Set(saved)
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			sub := path + "." + f.Name
			if slices.Contains(ignored, f.Name) {
				continue
			}
			if !f.IsExported() {
				t.Fatalf("%s: unexported field in a keyed type", sub)
			}
			forEachMutation(t, v.Field(i), sub, ignored, visit)
		}
	case reflect.Pointer:
		if v.IsNil() {
			t.Fatalf("%s: nil pointer in the base value", path)
		}
		mutate(func() { v.Set(reflect.Zero(v.Type())) })
		forEachMutation(t, v.Elem(), "*"+path, ignored, visit)
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s: empty slice in the base value", path)
		}
		mutate(func() { v.Set(reflect.Append(v.Slice(0, v.Len()), v.Index(0))) })
		mutate(func() { v.Set(v.Slice(0, v.Len()-1)) })
		for i := 0; i < v.Len(); i++ {
			forEachMutation(t, v.Index(i), path+"[]", ignored, visit)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		mutate(func() { v.SetInt(v.Int() + 1) })
	case reflect.Float32, reflect.Float64:
		mutate(func() { v.SetFloat(v.Float() + 0.5) })
	case reflect.Bool:
		mutate(func() { v.SetBool(!v.Bool()) })
	case reflect.String:
		mutate(func() { v.SetString(v.String() + "x") })
	default:
		t.Fatalf("%s: kind %s has no key encoding; extend the encoder and this test", path, v.Kind())
	}
}

// A nil grid runs a built-in grid experiment's registered grid; an
// empty spec runs the paper defaults. They must not share a key.
func TestExperimentKeyGridPresence(t *testing.T) {
	if ExperimentKey("fig8-5d", Params{}) == ExperimentKey("fig8-5d", Params{Grid: &GridSpec{}}) {
		t.Fatal("nil and empty grid specs share a key")
	}
	// nil and empty latency lists both run the paper latencies.
	if ExperimentKey("fig8", Params{}) != ExperimentKey("fig8", Params{LatenciesMS: []float64{}}) {
		t.Fatal("nil and empty latency lists key differently")
	}
	if k := ExperimentKey("fig8", Params{}); len(k) != 64 || strings.ToLower(k) != k {
		t.Fatalf("key %q is not lowercase sha256 hex", k)
	}
}
