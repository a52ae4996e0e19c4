package callgraph_test

import (
	"reflect"
	"testing"

	"hprefetch/internal/callgraph"
	_ "hprefetch/internal/microsvc" // registers the chain-* workloads
	"hprefetch/internal/workloads"
)

// TestAnalyzeMatchesLegacyOnWorkloads checks the additive reachable-size
// pass against the legacy per-component walk on every workload's real
// call graph: Reach, Saturated and Entries must be identical.
func TestAnalyzeMatchesLegacyOnWorkloads(t *testing.T) {
	for _, name := range workloads.AllSorted() {
		b, err := workloads.Build(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		workloads.DropCache() // bound memory: the large presets are hundreds of MB
		want, err := callgraph.ReferenceAnalyze(b.Linked.Graph, callgraph.Options{Threshold: callgraph.DefaultThreshold})
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Linked.Analysis; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: analysis differs from the legacy walk (%d entries, legacy %d)", name, len(got.Entries), len(want.Entries))
		}
	}
}
