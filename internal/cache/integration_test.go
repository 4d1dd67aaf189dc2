package cache

import (
	"testing"

	"microlib/internal/sim"
)

// flakyBackend refuses a configurable number of times before
// accepting, exercising the retry paths.
type flakyBackend struct {
	eng           *sim.Engine
	refuseFetch   int
	refuseWB      int
	fetches, wbs  int
	completeDelay uint64
}

func (b *flakyBackend) Fetch(lineAddr, pc uint64, prefetch bool, sink FillSink) bool {
	if b.refuseFetch > 0 {
		b.refuseFetch--
		return false
	}
	b.fetches++
	b.eng.AfterFunc(b.completeDelay, deliverFill, sink, nil, lineAddr, 0)
	return true
}

func (b *flakyBackend) WriteBack(lineAddr uint64) bool {
	if b.refuseWB > 0 {
		b.refuseWB--
		return false
	}
	b.wbs++
	return true
}

func (b *flakyBackend) FreeAtHint() uint64 { return b.eng.Now() + 1 }

// TestFetchRetriesOnBackpressure: a refused fetch is retried until
// the backend accepts, and the access still completes.
func TestFetchRetriesOnBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	be := &flakyBackend{eng: eng, refuseFetch: 5, completeDelay: 10}
	c := New(eng, smallConfig(), be)
	done := false
	if !c.Access(&Access{Addr: 0x1000, Done: DoneFunc(func(uint64, bool) { done = true })}).Accepted() {
		t.Fatal("access refused")
	}
	eng.AdvanceTo(200)
	if !done {
		t.Fatal("access never completed despite retries")
	}
	if be.fetches != 1 {
		t.Fatalf("fetches %d", be.fetches)
	}
}

// TestWriteBackRetries: a refused write-back is retried, never lost.
func TestWriteBackRetries(t *testing.T) {
	eng := sim.NewEngine()
	be := &flakyBackend{eng: eng, refuseWB: 3, completeDelay: 5}
	c := New(eng, smallConfig(), be)
	// Dirty a line, then evict it.
	c.Access(&Access{Addr: 0x1000, Write: true})
	eng.AdvanceTo(50)
	c.Access(&Access{Addr: 0x1000 + 1024})
	eng.AdvanceTo(200)
	if be.wbs != 1 {
		t.Fatalf("writeback lost under backpressure (%d)", be.wbs)
	}
}

// TestDrainDirtyLRU: only dirty LRU lines are drained, their dirty
// bits clear, and they stay resident.
func TestDrainDirtyLRU(t *testing.T) {
	eng := sim.NewEngine()
	be := &flakyBackend{eng: eng, completeDelay: 5}
	cfg := smallConfig()
	cfg.Assoc = 2
	c := New(eng, cfg, be)

	// Set with a clean MRU and dirty LRU.
	c.Access(&Access{Addr: 0x2000, Write: true}) // will become LRU, dirty
	eng.AdvanceTo(50)
	c.Access(&Access{Addr: 0x2000 + 512}) // same set, clean, MRU
	eng.AdvanceTo(100)

	drained := c.DrainDirtyLRU(64)
	found := false
	for _, la := range drained {
		if la == 0x2000 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dirty LRU not drained: %#x", drained)
	}
	if !c.Contains(0x2000) {
		t.Fatal("drained line evicted")
	}
	if _, dirty, _ := c.Probe(0x2000); dirty {
		t.Fatal("dirty bit not cleared")
	}
	if len(c.DrainDirtyLRU(64)) != 0 {
		t.Fatal("second drain found stale dirty lines")
	}
}

// TestPrefetchAsDemandBypassesIdleGate: with the ablation switch on,
// prefetches are issued even when the backend refuses prefetch-class
// requests.
func TestPrefetchAsDemandBypassesIdleGate(t *testing.T) {
	eng := sim.NewEngine()
	be := &prefetchRefusingBackend{eng: eng}
	c := New(eng, smallConfig(), be)
	c.Prefetch(0x4000)
	eng.AdvanceTo(100)
	if be.prefetchFetches != 0 {
		t.Fatal("gated prefetch got through without the switch")
	}
	c.SetPrefetchAsDemand(true)
	c.Prefetch(0x5000)
	eng.AdvanceTo(200)
	if be.demandFetches == 0 {
		t.Fatal("prefetch-as-demand never issued")
	}
}

type prefetchRefusingBackend struct {
	eng             *sim.Engine
	prefetchFetches int
	demandFetches   int
}

func (b *prefetchRefusingBackend) Fetch(lineAddr, pc uint64, prefetch bool, sink FillSink) bool {
	if prefetch {
		return false
	}
	b.demandFetches++
	b.eng.AfterFunc(5, deliverFill, sink, nil, lineAddr, 0)
	return true
}
func (b *prefetchRefusingBackend) WriteBack(lineAddr uint64) bool { return true }
func (b *prefetchRefusingBackend) FreeAtHint() uint64             { return b.eng.Now() + 50 }
