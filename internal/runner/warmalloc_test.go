package runner

import (
	"context"
	"testing"
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
