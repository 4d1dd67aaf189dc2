package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"

	"microlib/internal/campaign"
)

// workloadDef is one benchmark workload: a campaign spec file plus how it
// is executed.
type workloadDef struct {
	Name string
	// Workers is the campaign's worker count, capped at the host's
	// CPU count.
	Workers int
	// Seeds is how many consecutive generator seeds one run sweeps.
	Seeds int
}

var workloads = []workloadDef{
	{Name: "rank-grid", Workers: 2, Seeds: 1},
	{Name: "budget-sweep", Workers: 1, Seeds: 4},
	{Name: "store-stall", Workers: 1, Seeds: 10},
}

// seedPool is how many distinct inputs the --seed argument selects
// among: --seed n picks pool slot n mod seedPool, and slot p sweeps the
// generator seeds p*Seeds+1 … p*Seeds+Seeds. Every slot has recorded
// reference digests, so every run's output is checked.
const seedPool = 16

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(names, ", "))
}

func (w workloadDef) workers() int {
	return min(w.Workers, runtime.NumCPU())
}

// campaignSeeds returns the generator seeds --seed selects.
func (w workloadDef) campaignSeeds(seed int64) []uint64 {
	slot := uint64(((seed % seedPool) + seedPool) % seedPool)
	seeds := make([]uint64, w.Seeds)
	for i := range seeds {
		seeds[i] = slot*uint64(w.Seeds) + uint64(i) + 1
	}
	return seeds
}

// spec loads the workload's campaign spec with the seeds axis set from
// --seed.
func (w workloadDef) spec(seed int64) (campaign.Spec, error) {
	return w.specWithSeeds(w.campaignSeeds(seed))
}

func (w workloadDef) specWithSeeds(seeds []uint64) (campaign.Spec, error) {
	spec, err := campaign.LoadSpec(filepath.Join(benchDir, "specs", w.Name+".json"))
	if err != nil {
		return campaign.Spec{}, err
	}
	if len(spec.Seeds) > 0 {
		return campaign.Spec{}, fmt.Errorf("%s spec: seeds come from --seed, not the spec", w.Name)
	}
	spec.Seeds = seeds
	return spec, nil
}

// cellLabel names a plan cell by its values on the plan's swept axes
// other than the seed ("bench=gzip mech=GHB"), so references stay
// valid when the fingerprint scheme behind Cell.Key changes.
func cellLabel(plan *campaign.Plan, c campaign.Cell) string {
	var parts []string
	for i, ax := range plan.Axes {
		if len(ax.Values) > 1 && ax.Name != campaign.AxisSeed {
			parts = append(parts, ax.Name+"="+c.Values[i].Value)
		}
	}
	return strings.Join(parts, " ")
}
