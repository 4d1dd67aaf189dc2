package cache

import (
	"testing"
	"testing/quick"

	"microlib/internal/sim"
)

// testBackend records fetch/writeback traffic and completes fetches
// after a fixed delay. refuse makes the next n Fetch calls fail.
type testBackend struct {
	eng     *sim.Engine
	delay   uint64
	fetches []uint64
	wbacks  []uint64
	refuse  int
}

func (b *testBackend) Fetch(lineAddr, pc uint64, prefetch bool, sink FillSink) bool {
	if b.refuse > 0 {
		b.refuse--
		return false
	}
	b.fetches = append(b.fetches, lineAddr)
	b.eng.AfterFunc(b.delay, deliverFill, sink, nil, lineAddr, 0)
	return true
}

func (b *testBackend) WriteBack(lineAddr uint64) bool {
	b.wbacks = append(b.wbacks, lineAddr)
	return true
}

func (b *testBackend) FreeAtHint() uint64 { return b.eng.Now() + 1 }

func testCache(t testing.TB, cfg Config) (*sim.Engine, *Cache, *testBackend) {
	t.Helper()
	eng := sim.NewEngine()
	be := &testBackend{eng: eng, delay: 20}
	return eng, New(eng, cfg, be), be
}

func smallConfig() Config {
	return Config{
		Name: "t", Size: 1 << 10, LineSize: 32, Assoc: 1,
		HitLatency: 1, Ports: 2, MSHRs: 2, ReadsPerMSHR: 2,
		WriteBack: true, AllocOnWrite: true, PrefetchQueueCap: 8,
	}
}

// access drives one access to completion, advancing the clock.
func access(t testing.TB, eng *sim.Engine, c *Cache, a *Access) (completedAt uint64, wasHit bool) {
	t.Helper()
	var done, hit = false, false
	var at uint64
	orig := a.Done
	a.Done = DoneFunc(func(now uint64, h bool) {
		done, hit, at = true, h, now
		if orig != nil {
			orig.AccessDone(now, h)
		}
	})
	cycle := eng.Now()
	for !c.Access(a).Accepted() {
		cycle++
		eng.AdvanceTo(cycle)
	}
	for !done {
		cycle++
		eng.AdvanceTo(cycle)
		if cycle > 1_000_000 {
			t.Fatal("access never completed")
		}
	}
	return at, hit
}

func TestMissThenHit(t *testing.T) {
	eng, c, be := testCache(t, smallConfig())
	if _, hit := access(t, eng, c, &Access{Addr: 0x1000}); hit {
		t.Fatal("cold access reported hit")
	}
	if _, hit := access(t, eng, c, &Access{Addr: 0x1008}); !hit {
		t.Fatal("second access to same line missed")
	}
	if len(be.fetches) != 1 {
		t.Fatalf("fetched %d lines, want 1", len(be.fetches))
	}
	st := c.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	eng, c, be := testCache(t, smallConfig())
	access(t, eng, c, &Access{Addr: 0x1000, Write: true}) // dirty line
	// Evict it with a conflicting line (1KB direct-mapped: +1KB aliases).
	access(t, eng, c, &Access{Addr: 0x1000 + 1024})
	if len(be.wbacks) != 1 || be.wbacks[0] != 0x1000 {
		t.Fatalf("writebacks: %v", be.wbacks)
	}
	if c.Stats().WriteBack != 1 {
		t.Fatalf("writeback stat: %+v", c.Stats())
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	eng, c, be := testCache(t, smallConfig())
	access(t, eng, c, &Access{Addr: 0x1000})
	access(t, eng, c, &Access{Addr: 0x1000 + 1024})
	if len(be.wbacks) != 0 {
		t.Fatalf("clean line written back: %v", be.wbacks)
	}
}

func TestLRUOrder(t *testing.T) {
	cfg := smallConfig()
	cfg.Assoc = 2
	eng, c, _ := testCache(t, cfg)
	// Two lines fill a set, touch the first, insert a third: the
	// second (LRU) must be evicted.
	const s = 2 * 1024 // set stride for 1KB 2-way = 512B? use aliases of set 0
	a, b, d := uint64(0x10000), uint64(0x10000+512), uint64(0x10000+1024)
	access(t, eng, c, &Access{Addr: a})
	access(t, eng, c, &Access{Addr: b})
	access(t, eng, c, &Access{Addr: a}) // a is MRU
	access(t, eng, c, &Access{Addr: d}) // evicts b
	if !c.Contains(a) {
		t.Fatal("MRU line evicted")
	}
	if c.Contains(b) {
		t.Fatal("LRU line survived")
	}
	_ = s
}

func TestMSHRMerge(t *testing.T) {
	eng, c, be := testCache(t, smallConfig())
	done := 0
	cb := DoneFunc(func(uint64, bool) { done++ })
	if !c.Access(&Access{Addr: 0x2000, Done: cb}).Accepted() {
		t.Fatal("first access refused")
	}
	eng.AdvanceTo(2) // past the post-miss stall window
	// Same line, different address: merges into the MSHR.
	if !c.Access(&Access{Addr: 0x2008, Done: cb}).Accepted() {
		t.Fatal("mergeable access refused")
	}
	eng.AdvanceTo(4)
	// Merge limit (2 reads per MSHR) reached: refuse.
	if c.Access(&Access{Addr: 0x2010, Done: cb}).Accepted() {
		t.Fatal("merge over limit accepted")
	}
	eng.AdvanceTo(100)
	if done != 2 {
		t.Fatalf("%d completions, want 2", done)
	}
	if len(be.fetches) != 1 {
		t.Fatalf("%d fetches, want 1 (merged)", len(be.fetches))
	}
	if c.Stats().RejectMSHR != 1 {
		t.Fatalf("stats: %+v", c.Stats())
	}
}

func TestMSHRFullRefusesNewMiss(t *testing.T) {
	eng, c, _ := testCache(t, smallConfig()) // 2 MSHRs
	c.Access(&Access{Addr: 0x1000})
	eng.AdvanceTo(2) // skip the post-miss pipeline stall
	c.Access(&Access{Addr: 0x2000})
	eng.AdvanceTo(4)
	if c.Access(&Access{Addr: 0x3000}).Accepted() {
		t.Fatal("third concurrent miss accepted with 2 MSHRs")
	}
	if c.Stats().RejectMSHR == 0 {
		t.Fatal("no MSHR rejection recorded")
	}
}

func TestInfiniteMSHRMode(t *testing.T) {
	cfg := smallConfig()
	cfg.InfiniteMSHR = true
	cfg.NoPipelineStall = true
	eng, c, _ := testCache(t, cfg)
	for i := 0; i < 50; i++ {
		if !c.Access(&Access{Addr: uint64(0x1000 + i*2048)}).Accepted() {
			t.Fatalf("infinite-MSHR cache refused miss %d", i)
		}
		eng.AdvanceTo(eng.Now() + 1)
	}
}

func TestPortLimit(t *testing.T) {
	eng, c, _ := testCache(t, smallConfig()) // 2 ports
	access(t, eng, c, &Access{Addr: 0x1000})
	access(t, eng, c, &Access{Addr: 0x1040})
	// Move past the refill cycle (the refill consumed a port there).
	eng.AdvanceTo(eng.Now() + 2)
	// Same cycle: two hits fit, the third is refused on ports.
	if !c.Access(&Access{Addr: 0x1000}).Accepted() {
		t.Fatal("hit 1 refused")
	}
	if !c.Access(&Access{Addr: 0x1040}).Accepted() {
		t.Fatal("hit 2 refused")
	}
	if c.Access(&Access{Addr: 0x1000}).Accepted() {
		t.Fatal("third same-cycle access accepted with 2 ports")
	}
	if c.Stats().RejectPort == 0 {
		t.Fatal("no port rejection recorded")
	}
}

func TestPipelineStallAfterMiss(t *testing.T) {
	eng, c, _ := testCache(t, smallConfig())
	if !c.Access(&Access{Addr: 0x1000}).Accepted() {
		t.Fatal("miss refused")
	}
	// Section 2.2: the MSHR is busy the cycle after a request.
	eng.AdvanceTo(eng.Now() + 1)
	if c.Access(&Access{Addr: 0x5000}).Accepted() {
		t.Fatal("access accepted during post-miss stall cycle")
	}
	if c.Stats().RejectStall == 0 {
		t.Fatal("no stall rejection recorded")
	}
	// Two cycles later the pipeline is free again.
	eng.AdvanceTo(eng.Now() + 1)
	if !c.Access(&Access{Addr: 0x5000}).Accepted() {
		t.Fatal("access refused after the stall window")
	}
}

func TestPrefetchDedupAndDrop(t *testing.T) {
	cfg := smallConfig()
	cfg.PrefetchQueueCap = 2
	eng, c, be := testCache(t, cfg)
	be.refuse = 100 // force queuing
	c.Prefetch(0x8000)
	c.Prefetch(0x8000) // dup of queued
	c.Prefetch(0x9000)
	c.Prefetch(0xa000) // queue full: dropped
	st := c.Stats()
	if st.PrefetchDup == 0 {
		t.Fatalf("dup not detected: %+v", st)
	}
	if st.PrefetchDropped == 0 {
		t.Fatalf("overflow not dropped: %+v", st)
	}
	_ = eng
}

func TestPrefetchFillsAndHits(t *testing.T) {
	eng, c, _ := testCache(t, smallConfig())
	c.Prefetch(0x4000)
	eng.AdvanceTo(100)
	if !c.Contains(0x4000) {
		t.Fatal("prefetched line not installed")
	}
	_, hit := access(t, eng, c, &Access{Addr: 0x4000})
	if !hit {
		t.Fatal("prefetched line missed")
	}
	st := c.Stats()
	if st.PrefetchIssued != 1 || st.PrefetchUseful != 1 {
		t.Fatalf("prefetch stats: %+v", st)
	}
}

func TestPrefetchRedirect(t *testing.T) {
	eng, c, _ := testCache(t, smallConfig())
	var got uint64
	c.PrefetchInto(0x4000, RedirectFunc(func(la uint64, now uint64) { got = la }))
	eng.AdvanceTo(100)
	if got != 0x4000 {
		t.Fatalf("redirect sink got %#x", got)
	}
	if c.Contains(0x4000) {
		t.Fatal("redirected prefetch installed into the array")
	}
}

type probeAux struct {
	lines map[uint64]bool
	hits  int
}

func (p *probeAux) ProbeAux(lineAddr uint64, now uint64) bool {
	if p.lines[lineAddr] {
		delete(p.lines, lineAddr)
		p.hits++
		return true
	}
	return false
}

func TestAuxProberServicesMiss(t *testing.T) {
	eng, c, be := testCache(t, smallConfig())
	aux := &probeAux{lines: map[uint64]bool{0x7000: true}}
	c.Attach(aux)
	_, hit := access(t, eng, c, &Access{Addr: 0x7000})
	if !hit {
		t.Fatal("aux-held line not serviced as hit")
	}
	if aux.hits != 1 {
		t.Fatal("prober not consulted")
	}
	if len(be.fetches) != 0 {
		t.Fatal("downstream fetch issued despite aux hit")
	}
	if c.Stats().AuxHits != 1 {
		t.Fatalf("stats: %+v", c.Stats())
	}
	if !c.Contains(0x7000) {
		t.Fatal("aux line not installed")
	}
}

func TestCheckerCatchesDirtyBitBug(t *testing.T) {
	eng, c, _ := testCache(t, smallConfig())
	ch := NewChecker()
	c.EnableChecker(ch)
	access(t, eng, c, &Access{Addr: 0x1000, Write: true})
	// Inject the paper's bug: the dirty bit is lost.
	c.CorruptDirtyBits()
	access(t, eng, c, &Access{Addr: 0x1000 + 1024}) // evicts the line
	if len(ch.Violations) != 1 || ch.Violations[0] != 0x1000 {
		t.Fatalf("checker missed the dirty-bit bug: %v", ch.Violations)
	}
}

func TestCheckerSilentWhenCorrect(t *testing.T) {
	eng, c, _ := testCache(t, smallConfig())
	ch := NewChecker()
	c.EnableChecker(ch)
	access(t, eng, c, &Access{Addr: 0x1000, Write: true})
	access(t, eng, c, &Access{Addr: 0x1000 + 1024})
	if len(ch.Violations) != 0 {
		t.Fatalf("false positive: %v", ch.Violations)
	}
}

func TestAttachRejectsNonMechanism(t *testing.T) {
	_, c, _ := testCache(t, smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("Attach accepted a hook-less value")
		}
	}()
	c.Attach(struct{}{})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "a", Size: 0, LineSize: 32, Assoc: 1, Ports: 1, MSHRs: 1, ReadsPerMSHR: 1},
		{Name: "b", Size: 1024, LineSize: 33, Assoc: 1, Ports: 1, MSHRs: 1, ReadsPerMSHR: 1},
		{Name: "c", Size: 1024, LineSize: 32, Assoc: 1, Ports: 0, MSHRs: 1, ReadsPerMSHR: 1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d validated", i)
				}
			}()
			cfg.Validate()
		}()
	}
}

// TestPropertyStatsConsistent drives random access sequences and
// checks the core invariants: hits+misses == accesses, and a line
// reported present is found by a subsequent access.
func TestPropertyStatsConsistent(t *testing.T) {
	err := quick.Check(func(addrs []uint16) bool {
		cfg := smallConfig()
		cfg.NoPipelineStall = true
		eng := sim.NewEngine()
		be := &testBackend{eng: eng, delay: 5}
		c := New(eng, cfg, be)
		for _, a := range addrs {
			addr := uint64(a) * 8
			cycle := eng.Now()
			for !c.Access(&Access{Addr: addr}).Accepted() {
				cycle++
				eng.AdvanceTo(cycle)
			}
			eng.AdvanceTo(eng.Now() + 8)
		}
		eng.AdvanceTo(eng.Now() + 100)
		st := c.Stats()
		return st.Hits+st.Misses == st.Accesses
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPropertyContainsAfterFill: any line accessed and completed is
// resident afterwards (no aliasing within the same run of accesses
// to a single line).
func TestPropertyContainsAfterFill(t *testing.T) {
	err := quick.Check(func(a uint16) bool {
		eng := sim.NewEngine()
		be := &testBackend{eng: eng, delay: 5}
		c := New(eng, smallConfig(), be)
		addr := uint64(a) * 32
		cycle := eng.Now()
		for !c.Access(&Access{Addr: addr}).Accepted() {
			cycle++
			eng.AdvanceTo(cycle)
		}
		eng.AdvanceTo(eng.Now() + 50)
		return c.Contains(addr)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}
