package cache

import (
	"testing"

	"microlib/internal/sim"
)

// pooledBackend is a minimal allocation-free backend: fill delivery
// rides the engine's pooled AtFunc events with the sink and line
// address packed into the event node.
type pooledBackend struct {
	eng   *sim.Engine
	delay uint64
}

func deliverFill(now uint64, o1, _ any, la, _ uint64) {
	o1.(FillSink).FillLine(la, now)
}

func (b *pooledBackend) Fetch(lineAddr, pc uint64, prefetch bool, sink FillSink) bool {
	b.eng.AfterFunc(b.delay, deliverFill, sink, nil, lineAddr, 0)
	return true
}
func (b *pooledBackend) WriteBack(lineAddr uint64) bool { return true }
func (b *pooledBackend) FreeAtHint() uint64             { return b.eng.Now() + 1 }

// TestSteadyStateMissPathZeroAllocs drives misses, merges, fills,
// write-backs and prefetches through a warmed cache and asserts the
// whole fill path — MSHR recycling (targets backing arrays included),
// the prefetch request queue, and every engine event it schedules —
// is allocation-free in steady state.
func TestSteadyStateMissPathZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallConfig()
	cfg.PrefetchQueueCap = 8
	c := New(eng, cfg, &pooledBackend{eng: eng, delay: 20})

	var completions int
	done := DoneFunc(func(now uint64, hit bool) { completions++ })

	drive := func(addr uint64) {
		// A demand miss with a merge target, plus a prefetch to a
		// neighbouring line, then run everything to completion.
		cycle := eng.Now()
		acc := Access{Addr: addr, PC: 0x40, Done: done}
		for !c.Access(&acc).Accepted() {
			cycle++
			eng.AdvanceTo(cycle)
		}
		c.Prefetch(addr + 4096)
		eng.AdvanceTo(cycle + 64)
		// A conflicting write allocation forces evictions and
		// write-backs through the reused entries.
		wacc := Access{Addr: addr ^ 0x8000, PC: 0x44, Write: true, Done: done}
		for !c.Access(&wacc).Accepted() {
			cycle = eng.Now() + 1
			eng.AdvanceTo(cycle)
		}
		eng.AdvanceTo(eng.Now() + 64)
	}

	// Warm: touch every address the measured loop will use so slice
	// capacities (MSHR targets, prefetch queue, engine pools) reach
	// their steady state.
	var i uint64
	for i = 0; i < 64; i++ {
		drive(0x10000 + (i%16)*64)
	}

	allocs := testing.AllocsPerRun(200, func() {
		drive(0x10000 + (i%16)*64)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state miss path allocates %.1f per access burst, want 0", allocs)
	}
	if completions == 0 {
		t.Fatal("no accesses completed")
	}
}

// TestDrainDirtyLRUZeroAllocs drains a warmed cache repeatedly: the
// result buffer is reused, so a steady-state drain allocates nothing.
func TestDrainDirtyLRUZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, drainConfig(), &pooledBackend{eng: eng, delay: 7})
	c.TrackDirtyLRU()
	for i := uint64(0); i < 16; i++ {
		c.InstallDirect(0x40000+i*32, false, eng.Now())
	}
	dirty := func() {
		for i := uint64(0); i < 16; i++ {
			c.MarkDirty(0x40000 + i*32)
		}
	}
	dirty()
	c.DrainDirtyLRU(8) // size the result buffer
	allocs := testing.AllocsPerRun(200, func() {
		dirty()
		if len(c.DrainDirtyLRU(8)) != 8 {
			t.Fatal("drain came back short")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state drain allocates %.1f per call, want 0", allocs)
	}
}
