package harness

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"hprefetch/internal/bpu"
	"hprefetch/internal/core"
	"hprefetch/internal/fault"
	"hprefetch/internal/sim"
)

// keyBase is a fully populated configuration: every nested struct is
// present, HierConfig included, and freshly allocated per call so a
// mutation never leaks into the next case.
func keyBase() RunConfig {
	rc := DefaultRunConfig()
	hc := core.DefaultConfig()
	rc.HierConfig = &hc
	rc.Fault = fault.Config{Class: fault.ClassTagFlip, Rate: 0.25, Seed: 7}
	rc.Sample = SampleSpec{WarmInstr: 1, MeasureInstr: 2, SkipInstr: 3, Seed: 4}
	return rc
}

// keyLeaf is one scalar field of RunConfig, addressed by its field-index
// path from the RunConfig root (pointers followed).
type keyLeaf struct {
	name string
	path []int
}

// keyExempt are the RunConfig fields deliberately left out of the memo
// key: Ctx bounds a run without shaping its result, and Workloads only
// selects which pairs an experiment runs.
var keyExempt = map[string]bool{"Ctx": true, "Workloads": true}

// keyLeaves walks t recursively, collecting every scalar leaf and
// recording each struct type it descends into.
func keyLeaves(t *testing.T, typ reflect.Type, prefix string, path []int, seen map[reflect.Type]bool, out *[]keyLeaf) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := prefix + f.Name
		p := append(append([]int{}, path...), i)
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		switch {
		case keyExempt[name]:
			continue
		case !f.IsExported():
			t.Errorf("%s is unexported: the JSON-derived memo key cannot see it", name)
		case ft.Kind() == reflect.Struct:
			seen[ft] = true
			keyLeaves(t, ft, name+".", p, seen, out)
		default:
			*out = append(*out, keyLeaf{name, p})
		}
	}
}

// mutate changes the scalar at v to a different value of its kind.
func mutate(t *testing.T, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.125)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: field kind %s has no mutation; extend this test", name, v.Kind())
	}
}

func mustKey(t *testing.T, rc RunConfig) string {
	t.Helper()
	k, err := rc.key("gin", SchemeHier)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestKeyCoversEveryField pins the memo-key contract: changing any
// field of RunConfig — found by reflection, recursing through Params,
// bpu.Config, fault.Config, SampleSpec and *core.Config — changes the
// key, so no knob can be served a stale cached result. Ctx and
// Workloads are the only exemptions.
func TestKeyCoversEveryField(t *testing.T) {
	var leaves []keyLeaf
	seen := map[reflect.Type]bool{}
	keyLeaves(t, reflect.TypeOf(RunConfig{}), "", nil, seen, &leaves)
	for _, want := range []any{sim.Params{}, bpu.Config{}, fault.Config{}, SampleSpec{}, core.Config{}} {
		if !seen[reflect.TypeOf(want)] {
			t.Errorf("walk never reached %T", want)
		}
	}
	if len(leaves) < 50 {
		t.Fatalf("only %d leaves found; the walk is not recursing", len(leaves))
	}

	base := mustKey(t, keyBase())
	if got := mustKey(t, keyBase()); got != base {
		t.Fatal("equal configs (distinct HierConfig pointers) gave different keys")
	}
	for _, lf := range leaves {
		rc := keyBase()
		v := reflect.ValueOf(&rc).Elem()
		for _, i := range lf.path {
			if v.Kind() == reflect.Pointer {
				v = v.Elem()
			}
			v = v.Field(i)
		}
		mutate(t, lf.name, v)
		if mustKey(t, rc) == base {
			t.Errorf("changing %s does not change the memo key", lf.name)
		}
	}

	// The exemptions really are exempt.
	rc := keyBase()
	rc.Workloads = []string{"gin"}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rc.Ctx = ctx
	if mustKey(t, rc) != base {
		t.Error("Ctx or Workloads leaked into the memo key")
	}
	// So is the pair.
	if k, _ := keyBase().key("echo", SchemeHier); k == base {
		t.Error("workload not in the memo key")
	}
	if k, _ := keyBase().key("gin", SchemeFDIP); k == base {
		t.Error("scheme not in the memo key")
	}
}

// TestKeyRejectsUnencodableConfig: a configuration with no canonical
// encoding (a NaN fault rate) fails the run instead of keying it.
func TestKeyRejectsUnencodableConfig(t *testing.T) {
	rc := quick()
	rc.Fault = fault.Config{Class: fault.ClassTagFlip, Rate: math.NaN()}
	_, err := NewRunner(4).Run("gin", SchemeFDIP, rc)
	if err == nil || !strings.Contains(err.Error(), "canonical encoding") {
		t.Fatalf("NaN fault rate: err=%v, want a canonical-encoding error", err)
	}
}
