package cpu

import (
	"math"
	"testing"

	"microlib/internal/hier"
	"microlib/internal/sim"
	"microlib/internal/workload"
)

// stallHier is the stall-heavy machine: a 1 KB direct-mapped L1D with
// one port, one MSHR and one read per MSHR, so most submits are
// refused and the cores live on the refusal hints.
func stallHier() hier.Config {
	cfg := hier.DefaultConfig()
	cfg.L1D.Size = 1 << 10
	cfg.L1D.Assoc = 1
	cfg.L1D.Ports = 1
	cfg.L1D.MSHRs = 1
	cfg.L1D.ReadsPerMSHR = 1
	return cfg
}

// stallProfile is store-dominated random traffic over 8 MB: a store
// miss holds the single MSHR for a full memory round trip.
var stallProfile = workload.Profile{
	Name:      "stall-heavy",
	LoadFrac:  0.10,
	StoreFrac: 0.50,
	BlockLen:  12,
	CodeKB:    4,
	Patterns:  []workload.PatternSpec{{Kind: workload.PatRand, Size: 8 << 20}},
	Phases:    []workload.PhaseSpec{{Len: 100_000, Weights: []float64{1}}},
}

// TestStallHeavyRefusalCounts pins the stall-heavy machine's cycle
// count, L1D refusal counts and kernel event count exactly, for both
// cores. Refusal hints let a refused core jump straight to the cycle
// its retry can succeed; a core that steps one cycle per refusal
// reaches the same cycle count but re-probes the cache every cycle,
// which shows up here as an order-of-magnitude jump in RejectMSHR.
// The counts are deterministic, so the gate holds on any host.
func TestStallHeavyRefusalCounts(t *testing.T) {
	type counts struct {
		cycles, port, stall, mshr, events uint64
	}
	measure := func(eng *sim.Engine, h *hier.Hierarchy, cycles uint64) counts {
		s := h.L1D.Stats()
		_, executed := eng.Stats()
		return counts{cycles, s.RejectPort, s.RejectStall, s.RejectMSHR, executed}
	}
	const insts = 10_000
	cases := []struct {
		name string
		run  func() counts
		want counts
	}{
		{"inorder", func() counts {
			eng := sim.NewEngine()
			h := hier.Build(eng, stallHier())
			r := NewInOrder(eng, h, workload.NewGenerator(stallProfile, 1)).Run(insts)
			return measure(eng, h, r.Cycles)
		}, counts{538_762, 4_987, 2_499, 9_114, 21_193}},
		{"ooo", func() counts {
			eng := sim.NewEngine()
			h := hier.Build(eng, stallHier())
			o := NewOoO(eng, DefaultConfig(), h, workload.NewGenerator(stallProfile, 1))
			o.SetStop(insts)
			r := o.Run(math.MaxUint64)
			return measure(eng, h, r.Cycles)
		}, counts{539_649, 351_766, 14_079, 427_485, 30_464}},
	}
	for _, tc := range cases {
		if got := tc.run(); got != tc.want {
			t.Errorf("%s: cycles=%d L1D reject port/stall/mshr=%d/%d/%d events=%d, want %d, %d/%d/%d, %d",
				tc.name, got.cycles, got.port, got.stall, got.mshr, got.events,
				tc.want.cycles, tc.want.port, tc.want.stall, tc.want.mshr, tc.want.events)
		}
	}
}
