package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"microlib/internal/runner"
	"microlib/internal/telemetry"
	"microlib/internal/workload"
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
	// One worker runs gzip's Base and TP groups, then mcf's: each
	// capture overwrites the previous group's checkpoint, and mcf/TP's
	// mechanism snapshots are built in the ones mcf/Base's captures
	// moved out of gzip/TP's checkpoint and rung.
	if one, _ := runPlan(t, &Scheduler{Workers: 1, Warm: NewWarm(nil)}, warmSpec()); !reflect.DeepEqual(cold, one) {
		t.Fatalf("1-worker warm results differ from cold:\ncold: %+v\nwarm: %+v", cold, one)
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
	if firstStats.PrefixRuns != 4 || firstStats.Degraded != 0 {
		t.Fatalf("first run must capture each prefix: %+v", firstStats)
	}
	stored := storeFiles(t, dir)
	if len(stored[".ckpt"]) != 4 || len(stored[".corrupt"]) != 0 {
		t.Fatalf("store must hold the 4 captured prefixes: %v", stored)
	}

	store2, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, secondStats := runPlan(t, &Scheduler{Workers: 2, Warm: NewWarm(store2)}, warmSpec())
	if secondStats.PrefixRuns != 0 || secondStats.Degraded != 0 {
		t.Fatalf("second run must simulate no prefix: %+v", secondStats)
	}
	if secondStats.CheckpointHits != 12 {
		t.Fatalf("second run must restore every cell: %+v", secondStats)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("store-restored results differ from capture-run results")
	}
	if again := storeFiles(t, dir); !reflect.DeepEqual(again, stored) {
		t.Fatalf("second run must read, not rewrite, the store: %v, was %v", again, stored)
	}

	keys, err := store2.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Fatalf("stored prefixes: %v", keys)
	}
}

// storeFiles lists a checkpoint store's files by extension, each with
// its modification time.
func storeFiles(t *testing.T, dir string) map[string][]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]string{}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		ext := filepath.Ext(e.Name())
		files[ext] = append(files[ext], e.Name()+"@"+info.ModTime().String())
	}
	return files
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
	written := map[string]bool{}
	for _, c := range plan.Cells {
		written[c.Opts.PrefixFingerprint()] = true
	}
	corrupt := map[string]int{}
	s.journal = NewJournalWriter(onJournalLine(t, func(e JournalEvent) {
		if e.Ev == EvDegraded && e.Op == "ckpt.corrupt" {
			corrupt[e.Key]++
		}
	}), plan, "")
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
	for key := range written {
		if corrupt[key] != 1 {
			t.Fatalf("the journal must record each quarantine once: %v", corrupt)
		}
	}
	if len(written) != 4 || len(corrupt) != 4 {
		t.Fatalf("want 4 quarantined prefixes in the journal, got %v", corrupt)
	}
	files := storeFiles(t, dir)
	if len(files[".corrupt"]) != 4 || len(files[".ckpt"]) != 4 {
		t.Fatalf("corrupt entries must be preserved for diagnosis next to the re-captured ones: %v", files)
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

// The jobs of one program run back to back, programs in the order of
// their first cells in the plan, and within a program jobs keep the
// order of their first cells. Every warm prefix group is one job: the
// whole group, contiguous, in ascending budget. Every cold cell is a
// job of its own. A worker thus opens each program once, warm or cold.
func TestWarmDispatchOrder(t *testing.T) {
	plan, err := NewPlan(dispatchSpec())
	if err != nil {
		t.Fatal(err)
	}
	s := &Scheduler{Warm: NewWarm(nil)}
	cells, jobs := s.dispatch(plan.Cells)
	order := flatten(cells, jobs)
	checkPermutation(t, plan.Cells, order)

	// first is the plan index of the first cell of each program, and of
	// each prefix group.
	first := map[string]int{}
	for _, c := range plan.Cells {
		for _, id := range []string{c.program, c.prefix.key} {
			if _, ok := first[id]; !ok {
				first[id] = c.Index
			}
		}
	}
	var cold []Cell
	groups := map[string]bool{}
	done := map[string]bool{} // programs whose jobs have all run
	program, lastJob := "", -1
	for _, j := range jobs {
		run := flatten(cells, []job{j})
		if j.key == "" {
			if len(run) != 1 || run[0].Opts.Warmup != 0 {
				t.Fatalf("a cold job must be one cold cell: %+v", run)
			}
			cold = append(cold, run[0])
		} else {
			if groups[j.key] {
				t.Fatalf("group %s dispatched as two jobs", j.key)
			}
			groups[j.key] = true
			var budgets []uint64
			for _, c := range run {
				if c.prefix.key != j.key {
					t.Fatalf("cell %d of another group in job %s", c.Index, j.key)
				}
				budgets = append(budgets, c.Opts.Insts)
			}
			if !reflect.DeepEqual(budgets, []uint64{2000, 3000, 4000}) {
				t.Fatalf("group %s runs budgets %v, want the whole group ascending", j.key, budgets)
			}
		}
		p := run[0].program
		if p != program {
			if done[p] {
				t.Fatalf("program of cell %d dispatched again after another program's jobs", run[0].Index)
			}
			if program != "" {
				done[program] = true
				if first[p] < first[program] {
					t.Fatalf("program of cell %d runs after a program that appears later in the plan", run[0].Index)
				}
			}
			program, lastJob = p, -1
		}
		at := run[0].Index
		if j.key != "" {
			at = first[j.key]
		}
		if at < lastJob {
			t.Fatalf("job of cell %d runs after a job of its program that starts later in the plan", run[0].Index)
		}
		lastJob = at
	}
	if len(cold) != 12 || len(groups) != 4 {
		t.Fatalf("want 12 cold cells and 4 groups, got %d cold, %d groups", len(cold), len(groups))
	}
	checkProgramRuns(t, order, cold)

	// Sampled runs are all cold: plan order is kept as is.
	sampled := &Scheduler{Warm: s.Warm, Interval: 100, IntervalSink: func(Cell, []telemetry.Interval) {}}
	cells, jobs = sampled.dispatch(plan.Cells)
	for i, j := range jobs {
		if j.key != "" || len(j.idx) != 1 || cells[j.idx[0]].Index != plan.Cells[i].Index {
			t.Fatalf("sampled dispatch reordered or grouped cell %d", plan.Cells[i].Index)
		}
	}
}

// dispatched returns the cells in the scheduler's dispatch order.
func dispatched(s *Scheduler, cells []Cell) []Cell {
	return flatten(s.dispatch(cells))
}

// flatten returns the jobs' cells in dispatch order.
func flatten(cells []Cell, jobs []job) []Cell {
	var out []Cell
	for _, j := range jobs {
		for _, i := range j.idx {
			out = append(out, cells[i])
		}
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

// A group job runs its prefix capture once and climbs the budget
// ladder on one worker, however many workers the campaign has: over 2
// benchmarks × 2 seeds × 3 budgets, 4 captures serve 12 cells and
// every cell but a group's first restores a rung. The results equal a
// cold campaign's.
func TestWarmGroupJobsOneCapturePerGroup(t *testing.T) {
	spec := warmSpec()
	spec.Mechanisms = []string{"Base"}
	spec.Seeds = []uint64{1, 2}

	cold, _ := runPlan(t, &Scheduler{Workers: 1}, spec)
	for _, workers := range []int{1, 2} {
		warm, stats := runPlan(t, &Scheduler{Workers: workers, Warm: NewWarm(nil)}, spec)
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("%d workers: warm results differ from cold", workers)
		}
		if stats.PrefixRuns != 4 || stats.CheckpointHits != 12 || stats.RungRestores != 8 {
			t.Fatalf("%d workers: want 4 prefixes serving 12 cells, 8 from rungs: %+v", workers, stats)
		}
	}
}

// A canceled campaign starts no further cell of a group job: the job
// loop checks the context before each cell, so only the cell that was
// running when the cancellation landed ever started.
func TestWarmGroupJobStopsOnCancel(t *testing.T) {
	plan, err := NewPlan(warmSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	starts := 0
	s := &Scheduler{Workers: 1, Warm: NewWarm(nil), OnStart: func(Cell) {
		starts++
		cancel()
	}}
	if _, _, err := s.Run(ctx, plan.Cells); err == nil {
		t.Fatal("a canceled run must report its cancellation")
	}
	if starts != 1 {
		t.Fatalf("%d cells started after the cancellation, want only the one that caused it", starts-1)
	}
}

// A job builds its checkpoint at most once: a deterministic failure is
// remembered for the job's later cells, a canceled build is not.
func TestWarmJobRemembersCheckpointFailure(t *testing.T) {
	s := &Scheduler{Warm: NewWarm(nil)}
	a := new(runner.Arena)
	defer a.Close()
	j := &job{key: "k"}
	opts := runner.Options{Bench: "gzip", Insts: 2000} // no warm-up: capture fails
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.checkpoint(canceled, j, opts, a); !errors.Is(err, context.Canceled) || j.err != nil {
		t.Fatalf("canceled build: err %v, remembered %v", err, j.err)
	}
	_, first := s.checkpoint(context.Background(), j, opts, a)
	_, again := s.checkpoint(context.Background(), j, opts, a)
	if first == nil || again != first {
		t.Fatalf("a failed build must be remembered, not retried: %v then %v", first, again)
	}
}

// A worker builds nothing twice. Over six warm groups of two programs
// (two seeds × three warm-ups, seed innermost in plan order), one worker runs each program's
// groups back to back, so it builds each program image once even when
// the collector runs before every cell (and at no other time); and
// each capture after a run's first overwrites the previous group's
// checkpoint, so it allocates no cache-state table: six more groups of
// the same programs cost less than one L2 line table (16,384 lines of
// 24 bytes) apiece.
func TestWarmWorkerBuildsNothingTwice(t *testing.T) {
	spec := func(warmups ...uint64) Spec {
		return Spec{
			Name:       "nothing-twice",
			Benchmarks: []string{"gzip"},
			Mechanisms: []string{"Base"},
			Seeds:      []uint64{4242, 4243},
			Warmups:    warmups,
			Insts:      []uint64{2000, 3000},
		}
	}
	six, twelve := spec(400, 500, 600), spec(400, 450, 500, 550, 600, 650)
	runtime.GC() // drop images an earlier run left unreferenced
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated := func(spec Spec) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, st := runPlan(t, &Scheduler{Workers: 1, Warm: NewWarm(nil)}, spec)
		runtime.ReadMemStats(&after)
		if st.CheckpointHits != st.Total {
			t.Fatalf("every cell must run warm: %+v", st)
		}
		return after.TotalAlloc - before.TotalAlloc
	}

	built := workload.ImagesBuilt()
	collect := func(Cell) { runtime.GC() }
	_, st := runPlan(t, &Scheduler{Workers: 1, Warm: NewWarm(nil), OnStart: collect}, six)
	if n := workload.ImagesBuilt() - built; st.PrefixRuns != 6 || n != 2 {
		t.Fatalf("6 groups of 2 programs on one worker: %d prefix runs, %d images built, want 6 and 2", st.PrefixRuns, n)
	}

	allocated(six) // refill what the collections above emptied (sync.Pools)
	base, more := allocated(six), allocated(twelve)
	perGroup := (int64(more) - int64(base)) / 6
	const maxPerGroup = 16384 * 24
	t.Logf("6 groups %d B, 12 groups %d B: %d B per further group", base, more, perGroup)
	if perGroup >= maxPerGroup {
		t.Fatalf("a further warm group allocates %d B, want < %d: a capture rebuilt its checkpoint tables", perGroup, maxPerGroup)
	}
}

// A run's arenas share one set of mechanism tables, so a DBCP or Markov
// cell builds in tables another worker's cell gave up, while that
// worker runs on. Every cell must equal its fresh run; under -race the
// hand-over between workers is checked too.
func TestSharedMechTablesMatchFresh(t *testing.T) {
	w := uint64(500)
	spec := Spec{
		Name:       "shared-tables",
		Benchmarks: []string{"gzip", "mcf", "art"},
		Mechanisms: []string{"Base", "DBCP", "Markov"},
		Seeds:      []uint64{1, 2},
		Insts:      []uint64{3000},
		Warmup:     &w,
	}
	plan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runPlan(t, &Scheduler{Workers: 3}, spec)
	for _, c := range plan.Cells {
		res, err := runner.RunContext(context.Background(), c.Opts)
		if want := toCellResult(c, res, err); !reflect.DeepEqual(got[c.Key], want) {
			t.Fatalf("%s/%s seed %d on shared tables differs from a fresh run:\ngot  %+v\nwant %+v",
				c.Bench(), c.Mech(), c.Seed(), got[c.Key], want)
		}
	}
}
