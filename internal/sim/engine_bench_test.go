package sim

import "testing"

// BenchmarkAfterFuncDrain is the canonical kernel steady state (see
// RunSteadyState): schedule near-future events through AfterFunc and
// drain them. The CI bench gate requires 0 allocs/op here.
func BenchmarkAfterFuncDrain(b *testing.B) {
	eng := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	if RunSteadyState(eng, b.N, true) == 0 {
		b.Fatal("no events ran")
	}
}

// countFired is a benchmark event Func that counts firings into the
// *int its o1 word carries.
func countFired(_ uint64, o1, _ any, _, _ uint64) { *o1.(*int)++ }

// BenchmarkOverflowPromotion schedules exclusively beyond the ring
// window, forcing every event through the overflow heap and the
// promotion path.
func BenchmarkOverflowPromotion(b *testing.B) {
	eng := NewEngine()
	n := 0
	// Prime the node pool and heap backing to the steady-state
	// backlog (~2*ringSize events in flight).
	for i := 0; i < 4*ringSize; i++ {
		eng.AfterFunc(ringSize+uint64(i%1024), countFired, &n, nil, 0, 0)
		if i%64 == 63 {
			eng.AdvanceTo(eng.Now() + 64)
		}
	}
	eng.AdvanceTo(eng.Now() + 16*ringSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.AfterFunc(ringSize+uint64(i%1024), countFired, &n, nil, 0, 0)
		if i%64 == 63 {
			eng.AdvanceTo(eng.Now() + 64)
		}
	}
	eng.AdvanceTo(eng.Now() + 16*ringSize)
	if n == 0 {
		b.Fatal("no events ran")
	}
}

// BenchmarkSlabPromotion measures a window jump promoting a whole
// slab of overflow events at once (skip phases, warm-state restores)
// through the batch partition-and-reheapify path.
func BenchmarkSlabPromotion(b *testing.B) {
	eng := NewEngine()
	RunSlabPromotion(eng, 4096) // prime pools and scratch
	b.ReportAllocs()
	b.ResetTimer()
	var fired uint64
	for i := 0; i < b.N; i++ {
		fired += RunSlabPromotion(eng, 4096)
	}
	if fired == 0 {
		b.Fatal("no events ran")
	}
}

// BenchmarkIdleAdvance measures jumping the clock across dead time
// with one far event pending — the engine half of idle-cycle
// skipping.
func BenchmarkIdleAdvance(b *testing.B) {
	eng := NewEngine()
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.AfterFunc(100_000, countFired, &n, nil, 0, 0)
		eng.AdvanceTo(eng.Now() + 100_000)
	}
}
