package sim_test

import (
	"testing"

	"hprefetch/internal/sim"
)

// TestLiveRunAllocsConstant checks the live path retires events without a
// heap allocation each: a Run over thousands of blocks makes a handful
// of allocations (the prefetchers' occasional table growth), not one or
// more per block, under every scheme.
func TestLiveRunAllocsConstant(t *testing.T) {
	for _, s := range schemes() {
		m, err := sim.New(sim.DefaultParams(), newEngine(t, 3), nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.mk != nil {
			m.SetPrefetcher(s.mk(m))
		}
		m.Run(2_000_000) // warm: tables, rings and maps reach steady size
		blocks := m.BlockSeq()
		allocs := testing.AllocsPerRun(5, func() {
			if err := m.Run(100_000); err != nil {
				t.Fatal(err)
			}
		})
		perRun := float64(m.BlockSeq()-blocks) / 6 // AllocsPerRun adds a warm-up call
		if allocs > 64 {
			t.Errorf("%s: %.0f allocs per Run of %.0f blocks, want O(1)", s.name, allocs, perRun)
		}
	}
}
