package ewb

import (
	"testing"

	"microlib/internal/cache"
	"microlib/internal/mech/mechtest"
)

func TestEagerWritebackCleansDirtyLRU(t *testing.T) {
	s := mechtest.New(t, mechtest.L2Config())
	e := New(s.Eng, s.Cache, 64, 4)

	// Dirty two lines in different sets.
	for _, a := range []uint64{0x10000, 0x20040} {
		ok := s.Cache.Access(&cache.Access{Addr: a, Write: true})
		if !ok.Accepted() {
			t.Fatal("write refused")
		}
		s.Settle(60)
	}
	s.Settle(1000) // several scan intervals
	if e.st.Eager == 0 {
		t.Fatal("no eager writebacks")
	}
	if len(s.Back.WBacks) == 0 {
		t.Fatal("eager writebacks never reached the backend")
	}
	// The lines must still be resident (clean), not evicted.
	if !s.Cache.Contains(0x10000) {
		t.Fatal("eagerly written line was dropped")
	}
}

func TestEvictionAfterEagerWritebackIsClean(t *testing.T) {
	s := mechtest.New(t, mechtest.L2Config())
	New(s.Eng, s.Cache, 64, 8)

	s.Cache.Access(&cache.Access{Addr: 0x10000, Write: true})
	s.Settle(600)
	wbBefore := len(s.Back.WBacks)
	if wbBefore == 0 {
		t.Fatal("eager writeback did not happen")
	}
	// Evict the (now clean) line: no second write-back.
	s.Access(0x10000+4096, 1)
	s.Access(0x10000+8192, 1)
	s.Settle(200)
	if got := len(s.Back.WBacks); got != wbBefore {
		t.Fatalf("clean eviction still wrote back (%d -> %d)", wbBefore, got)
	}
}

func TestRegistryIncludesEWB(t *testing.T) {
	s := mechtest.New(t, mechtest.L2Config())
	e := New(s.Eng, s.Cache, 256, 4)
	if e.Name() != "EWB" {
		t.Fatal("name")
	}
	if len(e.Hardware()) != 1 {
		t.Fatal("hardware")
	}
}
