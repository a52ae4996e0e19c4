package main

import (
	"fmt"

	"hprefetch/internal/harness"
)

// paperMean is the paper's mean IPC speedup over FDIP per scheme, from
// the Figure 9 table in EXPERIMENTS.md.
var paperMean = map[harness.Scheme]float64{
	harness.SchemeEFetch:  0.014,
	harness.SchemeMANA:    0.016,
	harness.SchemeEIP:     0.040,
	harness.SchemeHier:    0.066,
	harness.SchemePerfect: 0.168,
}

// modelReport prints, for each scheme on each workload, the simulated
// IPC speedup over FDIP, its share of the Perfect-L1I headroom, and the
// paper's mean beside it with the difference. It is informational:
// simulated statistics are outputs, not end-to-end metrics.
func modelReport(rc harness.RunConfig, names []string, ipc map[job]float64) {
	fmt.Println("model report (simulated time; speedup over FDIP, paper mean from Figure 9):")
	fmt.Printf("  %-12s %-13s %9s %9s %9s %9s\n", "workload", "scheme", "speedup", "headroom", "paper", "error")
	means := map[harness.Scheme][]float64{}
	for _, w := range names {
		base, ok := ipc[job{w, harness.SchemeFDIP}]
		if !ok {
			continue
		}
		perfect, err := harness.RunUncached(w, harness.SchemePerfect, rc)
		if err != nil {
			fmt.Printf("  %-12s PerfectL1I run failed: %v\n", w, err)
			continue
		}
		head := perfect.Stats.IPC()/base - 1
		for _, s := range schemes[1:] {
			v, ok := ipc[job{w, s}]
			if !ok {
				continue
			}
			sp := v/base - 1
			means[s] = append(means[s], sp)
			fmt.Printf("  %-12s %-13s %+8.2f%% %8.0f%% %+8.1f%% %+8.2fpp\n",
				w, s, 100*sp, 100*sp/head, 100*paperMean[s], 100*(sp-paperMean[s]))
		}
		means[harness.SchemePerfect] = append(means[harness.SchemePerfect], head)
		fmt.Printf("  %-12s %-13s %+8.2f%% %8s %+8.1f%% %+8.2fpp\n",
			w, harness.SchemePerfect, 100*head, "100%", 100*paperMean[harness.SchemePerfect], 100*(head-paperMean[harness.SchemePerfect]))
	}
	for _, s := range append(append([]harness.Scheme{}, schemes[1:]...), harness.SchemePerfect) {
		if len(means[s]) == 0 {
			continue
		}
		m := mean(means[s])
		fmt.Printf("  %-12s %-13s %+8.2f%% %8s %+8.1f%% %+8.2fpp\n", "mean", s, 100*m, "", 100*paperMean[s], 100*(m-paperMean[s]))
	}
	fmt.Println("  The paper gives only means; no per-workload reference exists, so the model is unvalidated below the mean.")
}
