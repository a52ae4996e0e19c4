package fleet

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hprefetch/internal/harness"
	"hprefetch/internal/service"
	"hprefetch/internal/workloads"
)

// SweepSpec names the cross product a sweep simulates: every workload ×
// every scheme, one job per pair. It is also the sweep's journal form:
// the coordinator journals its JSON encoding and decodes it back on
// replay.
type SweepSpec struct {
	// Workloads to sweep (empty = all).
	Workloads []string `json:"workloads,omitempty"`
	// Schemes to sweep (empty = the figure-order scheme list).
	Schemes []string `json:"schemes,omitempty"`
	// Quick selects the scaled-down smoke configuration.
	Quick bool `json:"quick,omitempty"`
	// WarmInstr / MeasureInstr override run length (0 keeps defaults).
	WarmInstr    uint64 `json:"warm_instr,omitempty"`
	MeasureInstr uint64 `json:"measure_instr,omitempty"`
	// CorpusDir resolves jobs through a local content-addressed trace
	// corpus (self-healing replay; see internal/corpus). It applies to
	// in-process execution (RunLocal) only and is never forwarded to
	// backends — each hpserved names its own store via -corpus, since a
	// coordinator has no business dictating backend filesystem paths.
	CorpusDir string `json:"-"`
}

// withDefaults resolves the empty axes.
func (sp SweepSpec) withDefaults() SweepSpec {
	if len(sp.Workloads) == 0 {
		sp.Workloads = workloads.Names()
	}
	if len(sp.Schemes) == 0 {
		for _, sc := range harness.Schemes() {
			sp.Schemes = append(sp.Schemes, string(sc))
		}
	}
	return sp
}

// Validate rejects unknown workloads and schemes at submission, and
// duplicate axis entries (a duplicated key would make "every job
// exactly once" ambiguous).
func (sp SweepSpec) Validate() error {
	sp = sp.withDefaults()
	seenW := map[string]bool{}
	for _, w := range sp.Workloads {
		if _, err := workloads.Get(w); err != nil {
			return err
		}
		if seenW[w] {
			return fmt.Errorf("duplicate workload %q in sweep", w)
		}
		seenW[w] = true
	}
	seenS := map[string]bool{}
	for _, sc := range sp.Schemes {
		if _, err := harness.ParseScheme(sc); err != nil {
			return err
		}
		if seenS[sc] {
			return fmt.Errorf("duplicate scheme %q in sweep", sc)
		}
		seenS[sc] = true
	}
	return nil
}

// Keys expands the spec into its job keys, workload-major — the order
// rows and columns appear in the aggregated table.
func (sp SweepSpec) Keys() []string {
	sp = sp.withDefaults()
	out := make([]string, 0, len(sp.Workloads)*len(sp.Schemes))
	for _, w := range sp.Workloads {
		for _, sc := range sp.Schemes {
			out = append(out, JobKey(w, sc))
		}
	}
	return out
}

// JobKey names one (workload, scheme) job; the inverse is SplitKey.
// The key doubles as the consistent-hash routing input, so the same
// pair always prefers the same backend across sweeps and coordinator
// lives.
func JobKey(workload, scheme string) string { return workload + "/" + scheme }

// SplitKey splits a job key back into its pair.
func SplitKey(key string) (workload, scheme string, err error) {
	i := strings.IndexByte(key, '/')
	if i <= 0 || i == len(key)-1 {
		return "", "", fmt.Errorf("malformed job key %q", key)
	}
	return key[:i], key[i+1:], nil
}

// jobRequest is the RunRequest a backend receives for one job of this
// sweep.
func (sp SweepSpec) jobRequest(workload, scheme string) service.RunRequest {
	return service.RunRequest{
		Workload:     workload,
		Scheme:       scheme,
		Quick:        sp.Quick,
		WarmInstr:    sp.WarmInstr,
		MeasureInstr: sp.MeasureInstr,
	}
}

// RunLocal executes the whole sweep in-process through the shared
// harness Runner — the single-node reference a fleet run must match
// byte for byte. Used by hpsim -sweep and by tests cross-checking
// coordinator output.
func RunLocal(ctx context.Context, sp SweepSpec) (*harness.Table, error) {
	sp = sp.withDefaults()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	results := map[string]*service.RunResult{}
	for _, w := range sp.Workloads {
		for _, sc := range sp.Schemes {
			// Resolve the job exactly as a backend resolves the request
			// it would receive, so local and fleet runs simulate
			// identical machines.
			rc, err := service.ResolveRunConfig(sp.jobRequest(w, sc))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", JobKey(w, sc), err)
			}
			rc.CorpusDir = sp.CorpusDir
			res, err := service.ComputeRunResult(ctx, w, sc, rc)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", JobKey(w, sc), err)
			}
			results[JobKey(w, sc)] = res
		}
	}
	return SweepTable(sp, results)
}

// SweepTable aggregates per-job results into the sweep's table: one row
// per workload, one IPC column per scheme, and a note per job recording
// its stats digest — so byte-comparing two renderings compares every
// digest too. Formatting is fixed here and nowhere else; a table built
// from local results and one built from fleet-returned results are
// byte-identical whenever the underlying runs were (JSON round-trips
// float64 exactly).
func SweepTable(sp SweepSpec, results map[string]*service.RunResult) (*harness.Table, error) {
	sp = sp.withDefaults()
	t := &harness.Table{
		ID:     "sweep",
		Title:  "Sweep: IPC by workload and scheme",
		Header: append([]string{"Workload"}, sp.Schemes...),
	}
	for _, w := range sp.Workloads {
		row := []string{w}
		for _, sc := range sp.Schemes {
			key := JobKey(w, sc)
			res, ok := results[key]
			if !ok || res == nil {
				return nil, fmt.Errorf("sweep table: missing result for %s", key)
			}
			row = append(row, fmt.Sprintf("%.4f", res.IPC))
		}
		t.Rows = append(t.Rows, row)
	}
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Notes = append(t.Notes, fmt.Sprintf("digest %s = %s", k, results[k].StatsDigest))
	}
	return t, nil
}
