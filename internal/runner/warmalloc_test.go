package runner

import (
	"context"
	"runtime"
	"testing"

	"microlib/internal/core"
)

// TestWarmArenaReuseZeroMarginalAllocs pins the reset-don't-reallocate
// contract of the campaign worker's machine arena. Restoring a
// checkpoint into a reused machine must not rebuild the machine: the
// per-cell allocation count is a small fixed overhead (the restorer
// scaffolding and the returned Result) and — the load-bearing part —
// does not grow with the measured budget at all. Zero marginal
// allocations per simulated instruction means the measurement phase
// runs entirely on the arena's pooled state: calendar nodes, MSHR
// entries, window slots and load nodes are all recycled, never
// reallocated, exactly as on the cold path's steady state.
func TestWarmArenaReuseZeroMarginalAllocs(t *testing.T) {
	opts := DefaultOptions("gzip", "TP")
	opts.Seed = 1
	opts.Warmup = 2000

	ck, err := RunPrefixContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewCheckpointMachine(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// The prefix is rendered once, as a campaign renders it at plan
	// time: the restore path itself formats nothing.
	ctx := context.Background()
	prefix := opts.PrefixCanonical()
	runWith := func(insts uint64) {
		o := opts
		o.Insts = insts
		if _, err := m.RunFromCheckpointPrefix(ctx, o, prefix, ck); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the arena with both budgets so every pooled capacity
	// (calendar segments, MSHR target arrays, prefetch queues) reaches
	// its steady state before measuring.
	for i := 0; i < 3; i++ {
		runWith(3000)
		runWith(12000)
	}

	small := testing.AllocsPerRun(10, func() { runWith(3000) })
	large := testing.AllocsPerRun(10, func() { runWith(12000) })
	if large != small {
		t.Fatalf("warm run allocations grow with the measured budget: %.1f at 3k insts, %.1f at 12k — the arena is reallocating per-event state", small, large)
	}
	// The fixed overhead must stay a handful of objects. A machine
	// rebuild is three orders of magnitude more (caches, calendar,
	// window, generator), so this bound catches any accidental
	// construction on the restore path.
	const maxFixed = 40
	if small > maxFixed {
		t.Fatalf("warm run fixed overhead is %.1f allocations, want <= %d", small, maxFixed)
	}
}

// TestWorkerBuildsMechanismTablesOnce pins the hand-over of mechanism
// tables. One worker's cells run one after another, each built on
// the previous cell's machine and one MechTables as a campaign worker
// builds them, rotating Base, DBCP, Markov and SP over two programs as
// rank-grid does, with the collector run before every cell. From the
// second program on, a DBCP or Markov cell builds its table in the one
// the last cell of its name gave up, two cells of other mechanisms
// earlier, so it allocates far less than either table (DBCP's is
// 1.5 MB, Markov's 640 KiB). A buggy DBCP, whose table is half the
// size, between two default ones reuses nothing: it allocates its own
// table, and the default one after it allocates a full-size table
// again. All three equal fresh runs.
func TestWorkerBuildsMechanismTablesOnce(t *testing.T) {
	ctx := context.Background()
	tables := new(MechTables)
	var spare *Machine
	defer func() {
		if spare != nil {
			spare.Close()
		}
	}()
	run := func(opts Options) (Result, int64) {
		t.Helper()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, m, err := RunOn(ctx, opts, spare, tables)
		runtime.ReadMemStats(&after)
		if m != nil {
			spare = m
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, int64(after.TotalAlloc - before.TotalAlloc)
	}
	cell := func(bench, mech string, params core.Params) Options {
		opts := DefaultOptions(bench, mech)
		opts.Seed, opts.Warmup, opts.Insts = 1, 2000, 8000
		opts.Params = params
		return opts
	}

	const maxCellBytes = 256 << 10
	for i, bench := range []string{"gzip", "mcf"} {
		for _, mech := range []string{BaseName, "DBCP", "Markov", "SP"} {
			_, n := run(cell(bench, mech, nil))
			t.Logf("%s/%s: %d B", bench, mech, n)
			if i > 0 && (mech == "DBCP" || mech == "Markov") && n >= maxCellBytes {
				t.Errorf("%s/%s allocates %d B on a warmed worker, want < %d: its table was built afresh", bench, mech, n, maxCellBytes)
			}
		}
	}

	const entryBytes = 24 // a DBCP correlation-table entry
	for _, c := range []struct {
		params core.Params
		min    int64 // the table it must build afresh; 0 for none
	}{
		{nil, 0},
		{core.Params{"buggy": 1}, 32768 * entryBytes},
		{nil, 65536 * entryBytes},
	} {
		opts := cell("mcf", "DBCP", c.params)
		want, err := RunContext(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, n := run(opts)
		t.Logf("mcf/DBCP %v: %d B", c.params, n)
		if !sameResult(got, want) {
			t.Fatalf("DBCP %v on recycled storage differs from a fresh run:\ngot  %+v\nwant %+v", c.params, got, want)
		}
		if c.min == 0 && n >= maxCellBytes {
			t.Errorf("DBCP %v allocates %d B, want < %d: its table was built afresh", c.params, n, maxCellBytes)
		}
		if n < c.min {
			t.Errorf("DBCP %v allocates %d B, want >= %d: it reused a table of another geometry", c.params, n, c.min)
		}
	}
}
