package campaign

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"microlib/internal/telemetry"
)

// warmSpec builds a plan whose cells form prefix groups: several
// measured budgets over the same workload, seed, warm-up and machine
// configuration. Each (bench, mech) pair is one group of three.
func warmSpec() Spec {
	w := uint64(500)
	return Spec{
		Name:       "warm",
		Benchmarks: []string{"gzip", "mcf"},
		Mechanisms: []string{"Base", "TP"},
		Seeds:      []uint64{1},
		Insts:      []uint64{2000, 3000, 4000},
		Warmup:     &w,
	}
}

func runPlan(t *testing.T, s *Scheduler, spec Spec) (map[string]CellResult, SchedulerStats) {
	t.Helper()
	plan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	results, stats, err := s.Run(context.Background(), plan.Cells)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 {
		t.Fatalf("no cell may fail: %+v", stats)
	}
	return results, stats
}

// A warm campaign must produce cell-for-cell identical results to a
// cold one — warm checkpointing buys wall-clock time, never a
// different number — while paying for each prefix group once.
func TestWarmCampaignMatchesCold(t *testing.T) {
	cold, coldStats := runPlan(t, &Scheduler{Workers: 4}, warmSpec())
	if coldStats.PrefixRuns != 0 || coldStats.CheckpointHits != 0 {
		t.Fatalf("cold scheduler must not checkpoint: %+v", coldStats)
	}

	warm, warmStats := runPlan(t, &Scheduler{Workers: 4, Warm: NewWarm(nil)}, warmSpec())
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm results differ from cold:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	// 2 bench × 2 mech groups of 3 budgets: 4 prefixes serve 12 cells.
	if warmStats.PrefixRuns != 4 {
		t.Fatalf("want 4 prefix runs (one per group), got %+v", warmStats)
	}
	if warmStats.CheckpointHits != 12 || warmStats.CheckpointMisses != 0 {
		t.Fatalf("every cell must run from its group's checkpoint: %+v", warmStats)
	}
	if warmStats.Simulated != 12 {
		t.Fatalf("warm cells still count as simulated: %+v", warmStats)
	}

	// Two workers over budgets planned out of order: each group's
	// cells interleave across the workers, each worker climbs its own
	// ladder, and every result still equals its cold run.
	spec := warmSpec()
	spec.Insts = []uint64{4000, 2000, 5000, 3000}
	cold, _ = runPlan(t, &Scheduler{Workers: 2}, spec)
	warm, warmStats = runPlan(t, &Scheduler{Workers: 2, Warm: NewWarm(nil)}, spec)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("2-worker ladder results differ from cold:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if warmStats.PrefixRuns != 4 || warmStats.CheckpointHits != 16 || warmStats.RungRestores == 0 {
		t.Fatalf("want 4 prefixes serving 16 cells, some from rungs: %+v", warmStats)
	}
}

// With a checkpoint store, warm state survives the campaign: a rerun
// without a result cache re-simulates every measurement phase but pays
// for no prefix at all.
func TestWarmCheckpointStorePersistsAcrossRuns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	store1, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, firstStats := runPlan(t, &Scheduler{Workers: 2, Warm: NewWarm(store1)}, warmSpec())
	if firstStats.PrefixRuns != 4 {
		t.Fatalf("first run must capture each prefix: %+v", firstStats)
	}
	if c := store1.Counters(); c.Puts != 4 {
		t.Fatalf("store must hold the 4 captured prefixes: %+v", c)
	}

	store2, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, secondStats := runPlan(t, &Scheduler{Workers: 2, Warm: NewWarm(store2)}, warmSpec())
	if secondStats.PrefixRuns != 0 {
		t.Fatalf("second run must simulate no prefix: %+v", secondStats)
	}
	if secondStats.CheckpointHits != 12 {
		t.Fatalf("second run must restore every cell: %+v", secondStats)
	}
	if c := store2.Counters(); c.Hits == 0 || c.Puts != 0 {
		t.Fatalf("second run must read, not write, the store: %+v", c)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("store-restored results differ from capture-run results")
	}

	keys, err := store2.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Fatalf("stored prefixes: %v", keys)
	}
}

// A store full of garbage must cost nothing but the re-capture: each
// corrupt entry is quarantined and its prefix simulated fresh, with
// the degradation counted, and the results stay correct.
func TestWarmQuarantinesCorruptCheckpoints(t *testing.T) {
	cold, _ := runPlan(t, &Scheduler{}, warmSpec())

	dir := filepath.Join(t.TempDir(), "ckpt")
	store, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(warmSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range plan.Cells {
		key := c.Opts.PrefixFingerprint()
		if err := os.WriteFile(filepath.Join(dir, key+".ckpt"), []byte("torn bytes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := &Scheduler{Warm: NewWarm(store)}
	s.Warm.Store.OnDegrade = s.Degrade
	warm, stats := runPlan(t, s, warmSpec())
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("results after quarantine differ from cold")
	}
	if stats.PrefixRuns != 4 {
		t.Fatalf("every corrupt prefix must be re-simulated: %+v", stats)
	}
	if stats.Degraded != 4 {
		t.Fatalf("each quarantined entry must be counted: %+v", stats)
	}
	if c := store.Counters(); c.Corrupt != 4 {
		t.Fatalf("store counters must record the quarantines: %+v", c)
	}
	quarantined, err := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if err != nil || len(quarantined) != 4 {
		t.Fatalf("corrupt entries must be preserved for diagnosis: %v %v", quarantined, err)
	}
}

// A stored checkpoint that passes integrity checks but cannot serve a
// cell (here: a fetch horizon beyond every measured budget) silently
// degrades those cells to cold runs — correct results, counted misses.
func TestWarmUnusableCheckpointFallsBackCold(t *testing.T) {
	cold, _ := runPlan(t, &Scheduler{}, warmSpec())

	dir := filepath.Join(t.TempDir(), "ckpt")
	store, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	capture, err := OpenCheckpointStore(filepath.Join(t.TempDir(), "real"))
	if err != nil {
		t.Fatal(err)
	}
	// Capture genuine checkpoints, then poison the fetch horizon so no
	// budget can clear it.
	if _, stats := runPlan(t, &Scheduler{Warm: NewWarm(capture)}, warmSpec()); stats.PrefixRuns != 4 {
		t.Fatalf("capture run: %+v", stats)
	}
	keys, err := capture.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		ck, ok := capture.Get(key)
		if !ok {
			t.Fatalf("captured checkpoint %s missing", key)
		}
		ck.MinInsts = 1 << 60
		if err := store.Put(key, ck); err != nil {
			t.Fatal(err)
		}
	}

	warm, stats := runPlan(t, &Scheduler{Warm: NewWarm(store)}, warmSpec())
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("fallback results differ from cold")
	}
	if stats.CheckpointHits != 0 || stats.CheckpointMisses != 12 {
		t.Fatalf("every cell must fall back cold: %+v", stats)
	}
	if stats.Degraded != 0 {
		t.Fatalf("an unusable checkpoint is a planned fallback, not a degradation: %+v", stats)
	}
}

// Sampled cells must bypass warm execution: the warm-up part of an
// interval series cannot be reproduced from a post-warm-up snapshot.
func TestWarmSampledCellsRunCold(t *testing.T) {
	s := &Scheduler{
		Warm:         NewWarm(nil),
		Interval:     500,
		IntervalSink: func(Cell, []telemetry.Interval) {},
	}
	_, stats := runPlan(t, s, warmSpec())
	if stats.CheckpointHits != 0 || stats.PrefixRuns != 0 {
		t.Fatalf("sampled cells must run cold: %+v", stats)
	}
}

// Execute wires warm checkpointing by default and threads the
// scheduler's warm counters into the summary stats.
func TestExecuteWarmByDefault(t *testing.T) {
	sum, err := Execute(context.Background(), warmSpec(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sched.PrefixRuns != 4 || sum.Sched.CheckpointHits != 12 {
		t.Fatalf("Execute must run warm by default: %+v", sum.Sched)
	}
	coldSum, err := Execute(context.Background(), warmSpec(), RunConfig{NoWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	if coldSum.Sched.PrefixRuns != 0 || coldSum.Sched.CheckpointHits != 0 {
		t.Fatalf("NoWarm must disable checkpointing: %+v", coldSum.Sched)
	}
	for i := range sum.Scenarios {
		if !reflect.DeepEqual(sum.Scenarios[i].Mean, coldSum.Scenarios[i].Mean) {
			t.Fatalf("warm and cold aggregates differ in scenario %d", i)
		}
	}
}

// dispatchSpec mixes warm prefix groups (warm-up 500: one group of
// three budgets per bench × seed) with cells that cannot run warm
// (warm-up 0), interleaved in plan order.
func dispatchSpec() Spec {
	return Spec{
		Name:       "dispatch",
		Benchmarks: []string{"gzip", "mcf"},
		Mechanisms: []string{"Base"},
		Seeds:      []uint64{1, 2},
		Warmups:    []uint64{0, 500},
		Insts:      []uint64{3000, 2000, 4000},
	}
}

// The dispatch order is a permutation of the plan that starts every
// group in the plan-order slot of its first cell, runs each group's
// remaining cells back to back, runs each group in ascending budget
// (its smallest budget first) and runs the cold cells of each program
// back to back.
func TestWarmDispatchOrder(t *testing.T) {
	plan, err := NewPlan(dispatchSpec())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWarm(nil)
	order := dispatched(&Scheduler{Warm: w}, plan.Cells)
	checkPermutation(t, plan.Cells, order)

	// planFirst is the plan index of each group's first cell.
	planFirst := map[string]int{}
	for _, c := range plan.Cells {
		if k := w.key(c, false); k != "" {
			if _, ok := planFirst[k]; !ok {
				planFirst[k] = c.Index
			}
		}
	}
	var cold []Cell
	var firsts []int
	started := map[string]bool{}
	budget := map[string]uint64{}  // group -> budget of its latest dispatched cell
	restRun := map[string][2]int{} // group -> [first, last] position of its non-first cells
	firstRestPos := -1
	for pos, c := range order {
		k := w.key(c, false)
		if k != "" {
			if c.Opts.Insts < budget[k] {
				t.Fatalf("cell %d (insts %d) dispatched after a larger budget (%d) of its group", c.Index, c.Opts.Insts, budget[k])
			}
			budget[k] = c.Opts.Insts
		}
		switch {
		case k == "":
			cold = append(cold, c)
			if firstRestPos >= 0 {
				t.Fatalf("cold cell %d dispatched after a group's remaining cells", c.Index)
			}
		case !started[k]:
			started[k] = true
			firsts = append(firsts, planFirst[k])
			if c.Opts.Insts != 2000 {
				t.Fatalf("group of cell %d starts with budget %d, want its smallest, 2000", c.Index, c.Opts.Insts)
			}
			if firstRestPos >= 0 {
				t.Fatalf("group first cell %d dispatched after remaining cells", c.Index)
			}
		default:
			if firstRestPos < 0 {
				firstRestPos = pos
			}
			r, ok := restRun[k]
			if !ok {
				r[0] = pos
			} else if r[1] != pos-1 {
				t.Fatalf("group of cell %d is not contiguous after its first cell", c.Index)
			}
			r[1] = pos
			restRun[k] = r
		}
	}
	if len(cold) != 12 || len(firsts) != 4 || len(restRun) != 4 {
		t.Fatalf("want 12 cold cells and 4 groups, got %d cold, %d firsts, %d groups", len(cold), len(firsts), len(restRun))
	}
	if !sort.IntsAreSorted(firsts) {
		t.Fatalf("groups started out of plan order: %v", firsts)
	}
	checkProgramRuns(t, order, cold)

	// Sampled runs are all cold: plan order is kept as is.
	sampled := &Scheduler{Warm: w, Interval: 100, IntervalSink: func(Cell, []telemetry.Interval) {}}
	for i, c := range dispatched(sampled, plan.Cells) {
		if c.Index != plan.Cells[i].Index {
			t.Fatalf("sampled dispatch reordered cell %d", c.Index)
		}
	}
}

// dispatched returns the cells in the scheduler's dispatch order.
func dispatched(s *Scheduler, cells []Cell) []Cell {
	cells, order := s.dispatchOrder(cells)
	out := make([]Cell, len(order))
	for j, i := range order {
		out[j] = cells[i]
	}
	return out
}

// checkPermutation fails unless order holds exactly the cells of plan.
func checkPermutation(t *testing.T, plan, order []Cell) {
	t.Helper()
	if len(order) != len(plan) {
		t.Fatalf("dispatch order has %d cells, plan %d", len(order), len(plan))
	}
	n := map[int]int{}
	for _, c := range plan {
		n[c.Index]++
	}
	for _, c := range order {
		if n[c.Index]--; n[c.Index] < 0 {
			t.Fatalf("cell %d dispatched more often than planned", c.Index)
		}
	}
}

// checkProgramRuns fails unless the cold cells (in dispatch order)
// of each program sit next to each other in order, programs come in
// the order of their first cell in the plan, and each program's cells
// keep plan order.
func checkProgramRuns(t *testing.T, order, cold []Cell) {
	t.Helper()
	at := func(c Cell) int {
		for i := range order {
			if order[i].Index == c.Index && order[i].Key == c.Key {
				return i
			}
		}
		return -1
	}
	last := map[string]int{} // program -> position of its latest cell
	prevFirst := -1
	for _, c := range cold {
		p, i := c.program, at(c)
		if j, ok := last[p]; ok {
			if i != j+1 {
				t.Fatalf("cell %d of program %q is not next to the program's other cells", c.Index, p)
			}
			if order[j].Index > c.Index {
				t.Fatalf("cells %d and %d of one program left plan order", order[j].Index, c.Index)
			}
		} else {
			if c.Index < prevFirst {
				t.Fatalf("program of cell %d runs before a program that appears earlier in the plan", c.Index)
			}
			prevFirst = c.Index
		}
		last[p] = i
	}
	if len(last) < 2 {
		t.Fatalf("want cold cells of several programs, got %d", len(last))
	}
}

// A cold plan whose programs (benchmark × seed) interleave in plan
// order is dispatched one program at a time; copies of a fingerprint
// keep their relative order, and a sampled run keeps plan order.
func TestDispatchOrderGroupsPrograms(t *testing.T) {
	spec := dispatchSpec()
	spec.Warmups = []uint64{0}
	spec.Mechanisms = []string{"Base", "TP"}
	plan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cells[0].program == plan.Cells[1].program {
		t.Fatal("plan order must interleave programs for this test to mean anything")
	}
	// Duplicate copies of two cells, as a cross-scenario repeat would
	// leave them: each copy carries its original's index and key.
	cells := append(slices.Clone(plan.Cells), plan.Cells[5], plan.Cells[0])
	for i := len(plan.Cells); i < len(cells); i++ {
		cells[i].Index = i
	}
	for _, s := range []*Scheduler{{}, {Warm: NewWarm(nil)}} {
		order := dispatched(s, cells)
		checkPermutation(t, cells, order)
		checkProgramRuns(t, order, order)
		for _, k := range []string{plan.Cells[5].Key, plan.Cells[0].Key} {
			var idx []int
			for _, c := range order {
				if c.Key == k {
					idx = append(idx, c.Index)
				}
			}
			if len(idx) != 2 || idx[0] > idx[1] {
				t.Fatalf("copies of %s dispatched as %v, want plan order", k, idx)
			}
		}
		sampled := &Scheduler{Warm: s.Warm, Interval: 100, IntervalSink: func(Cell, []telemetry.Interval) {}}
		for i, c := range dispatched(sampled, cells) {
			if c.Index != cells[i].Index {
				t.Fatalf("sampled dispatch reordered cell %d", c.Index)
			}
		}
	}
}

// One worker, 2 benchmarks × 2 seeds × 3 budgets: the dispatch order
// keeps the worker's arena on one group for runs of cells, and each
// group's prefix capture runs on the arena's machine, which its first
// cell then restores into. So no group builds more than two machines,
// prefix capture included (the capture, then one for the rest), and
// the results equal a cold campaign's.
func TestWarmArenaBuildsPerGroup(t *testing.T) {
	spec := warmSpec()
	spec.Mechanisms = []string{"Base"}
	spec.Seeds = []uint64{1, 2}

	cold, _ := runPlan(t, &Scheduler{Workers: 1}, spec)
	w := NewWarm(nil)
	warm, stats := runPlan(t, &Scheduler{Workers: 1, Warm: w}, spec)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm results differ from cold")
	}
	if stats.PrefixRuns != 4 || stats.CheckpointHits != 12 {
		t.Fatalf("want 4 prefixes serving 12 cells: %+v", stats)
	}
	if len(w.arenas) != 1 {
		t.Fatalf("one worker, %d arenas", len(w.arenas))
	}
	builds := w.arenas[0].builds
	if len(builds) != 4 {
		t.Fatalf("arena built machines for %d groups, want 4: %v", len(builds), builds)
	}
	for k, n := range builds {
		if n > 2 {
			t.Fatalf("group %s built %d machines (prefix capture included), want <= 2", k, n)
		}
	}
}
