package cache

import (
	"math/rand"
	"slices"
	"testing"

	"microlib/internal/sim"
)

// refDrainDirtyLRU is the full-walk drain the dirty-LRU index
// replaces: visit every set in order, find its LRU valid line and
// take it when dirty. It reports what DrainDirtyLRU(max) must return
// without clearing anything.
func refDrainDirtyLRU(c *Cache, max int) []uint64 {
	var out []uint64
	for s := range c.numSets() {
		if len(out) >= max {
			break
		}
		set := c.set(uint64(s))
		lru := -1
		for w := range set {
			if !set[w].Valid {
				continue
			}
			if lru < 0 || set[w].LastUse < set[lru].LastUse {
				lru = w
			}
		}
		if lru >= 0 && set[lru].Dirty {
			out = append(out, set[lru].Tag<<c.lineShift)
		}
	}
	return out
}

// drainConfig is a small 4-way write-back cache with 128 sets, so the
// dirty-LRU index spans two bitmap words.
func drainConfig() Config {
	return Config{
		Name: "drain", Size: 16 << 10, LineSize: 32, Assoc: 4,
		HitLatency: 1, Ports: 2, MSHRs: 4, ReadsPerMSHR: 4,
		WriteBack: true, AllocOnWrite: true, PrefetchQueueCap: 8,
	}
}

// TestDrainDirtyLRUMatchesFullWalk mixes every operation that changes
// a line — hits, misses and their fills, writes, MarkDirty,
// InvalidateLine, InstallDirect, a State/SetState round trip and
// CorruptDirtyBits — and, once the index is armed, after every step
// checks DrainDirtyLRU against the full-walk reference: same lines,
// same order.
func TestDrainDirtyLRUMatchesFullWalk(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, drainConfig(), &pooledBackend{eng: eng, delay: 7})
	rng := rand.New(rand.NewSource(7))
	// 1024 lines over 128 sets: eight candidates per 4-way set, so
	// accesses hit, miss and evict.
	addr := func() uint64 { return uint64(rng.Intn(1024)) * 32 }
	noRef := func(any) (sim.OpRef, bool) { return sim.OpRef{}, false }
	noSink := func(sim.OpRef) (any, bool) { return nil, false }
	drains := 0
	for step := 0; step < 20_000; step++ {
		switch op := rng.Intn(100); {
		case op < 60:
			c.Access(&Access{Addr: addr(), Write: rng.Intn(3) == 0})
		case op < 70:
			c.MarkDirty(addr())
		case op < 78:
			c.InvalidateLine(addr())
		case op < 86:
			// Mechanisms install only lines the cache neither holds
			// nor is fetching.
			if a := addr(); !c.Contains(a) && !c.MissPending(a) {
				c.InstallDirect(a, rng.Intn(2) == 0, eng.Now())
			}
		case op < 88:
			// Round trip through the snapshot with the index wiped:
			// SetState must rebuild it from the restored lines.
			var st State
			if err := c.StateInto(&st, noRef); err != nil {
				t.Fatal(err)
			}
			clear(c.dirtyLRU)
			if err := c.SetState(st, noSink); err != nil {
				t.Fatal(err)
			}
		case op < 89:
			c.CorruptDirtyBits()
		}
		eng.AdvanceTo(eng.Now() + uint64(rng.Intn(4)))
		// Arm the index on a populated cache: it must start from the
		// lines already there.
		if step < 1_000 {
			continue
		} else if step == 1_000 {
			c.TrackDirtyLRU()
		}

		// Small batches leave dirty LRU lines standing across steps.
		max := rng.Intn(3)
		want := refDrainDirtyLRU(c, max)
		got := c.DrainDirtyLRU(max)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: DrainDirtyLRU(%d) = %#x, full walk says %#x", step, max, got, want)
		}
		for _, la := range got {
			if _, dirty, _ := c.Probe(la); dirty {
				t.Fatalf("step %d: drained line %#x still dirty", step, la)
			}
		}
		drains += len(got)
	}
	if drains == 0 {
		t.Fatal("no line was ever drained")
	}
}
