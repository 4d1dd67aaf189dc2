package campaign

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
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
		Insts:      []uint64{2000, 3000, 4000},
	}
}

// The dispatch order from prepare is a permutation of the plan that
// starts every group's first cell in plan order, runs each group's
// remaining cells back to back, and leaves cold cells in plan order.
func TestWarmDispatchOrder(t *testing.T) {
	plan, err := NewPlan(dispatchSpec())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWarm(nil)
	order := w.prepare(plan.Cells, false)
	if len(order) != len(plan.Cells) {
		t.Fatalf("dispatch order has %d cells, plan %d", len(order), len(plan.Cells))
	}
	seen := map[int]bool{}
	for _, c := range order {
		if seen[c.Index] {
			t.Fatalf("cell %d dispatched twice", c.Index)
		}
		seen[c.Index] = true
	}

	var cold, firsts []int
	started := map[string]bool{}
	restRun := map[string][2]int{} // group -> [first, last] position of its non-first cells
	firstRestPos := -1
	for pos, c := range order {
		k := w.key(c, false)
		switch {
		case k == "":
			cold = append(cold, c.Index)
			if firstRestPos >= 0 {
				t.Fatalf("cold cell %d dispatched after a group's remaining cells", c.Index)
			}
		case !started[k]:
			started[k] = true
			firsts = append(firsts, c.Index)
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
	for _, idx := range [][]int{cold, firsts} {
		if !sort.IntsAreSorted(idx) {
			t.Fatalf("cells reordered within the first pass: %v", idx)
		}
	}

	// Sampled runs are all cold: plan order is kept as is.
	for i, c := range w.prepare(plan.Cells, true) {
		if c.Index != plan.Cells[i].Index {
			t.Fatalf("sampled dispatch reordered cell %d", c.Index)
		}
	}
}

// One worker, 2 benchmarks × 2 seeds × 3 budgets: the dispatch order
// keeps the worker's arena on one group for runs of cells, so no group
// builds its machine more than twice (once for its first cell, once
// for the rest), and the results equal a cold campaign's.
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
			t.Fatalf("group %s built its arena machine %d times, want <= 2", k, n)
		}
	}
}
