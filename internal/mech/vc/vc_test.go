package vc

import (
	"testing"

	"microlib/internal/cache"
	"microlib/internal/mech/mechtest"
)

func TestConflictRescue(t *testing.T) {
	s := mechtest.New(t, mechtest.L1Config()) // 1KB direct-mapped
	v := NewVC(s.Eng, s.Cache, 512)
	s.Cache.Attach(v)

	a, b := uint64(0x10000), uint64(0x10000+1024) // same set
	s.Access(a, 1)
	s.Access(b, 1) // evicts a into the VC
	if v.st.Inserts == 0 {
		t.Fatal("eviction did not reach the VC")
	}
	fetchesBefore := len(s.Back.Fetches)
	if !s.Access(a, 1) { // VC hit: swap back, no downstream fetch
		t.Fatal("victim-cache rescue not reported as hit")
	}
	if v.st.Hits != 1 {
		t.Fatalf("VC hits %d", v.st.Hits)
	}
	if len(s.Back.Fetches) != fetchesBefore {
		t.Fatal("VC hit still fetched downstream")
	}
}

func TestDirtyVictimRestored(t *testing.T) {
	s := mechtest.New(t, mechtest.L1Config())
	v := NewVC(s.Eng, s.Cache, 512)
	s.Cache.Attach(v)

	a, b := uint64(0x20000), uint64(0x20000+1024)
	// Dirty a, evict into VC, rescue it, then evict again: the dirty
	// bit must have survived the round trip (the line is written back
	// eventually, not lost).
	done := false
	s.Cache.Access(&cache.Access{Addr: a, Write: true, Done: cache.DoneFunc(func(uint64, bool) { done = true })})
	s.Settle(200)
	if !done {
		t.Fatal("store never completed")
	}
	s.Access(b, 1) // a -> VC (dirty)
	s.Access(a, 1) // rescue; MarkDirty restores dirtiness
	s.Settle(10)
	s.Access(b, 1) // a -> VC again
	s.Access(a, 1) // rescue again
	s.Settle(10)
	// Fill the VC with other victims so a's copy is eventually
	// retired; its write-back must appear downstream.
	for i := uint64(2); i < 40; i++ {
		s.Access(0x20000+i*1024, 1)
	}
	s.Settle(500)
	if len(s.Back.WBacks) == 0 {
		t.Fatal("dirty victim silently dropped through the VC path")
	}
}

func TestVCCapacity(t *testing.T) {
	s := mechtest.New(t, mechtest.L1Config())
	v := NewVC(s.Eng, s.Cache, 512) // 16 lines of 32B
	s.Cache.Attach(v)
	// Push 32 victims through one set, then walk back in reverse:
	// recent victims are rescued from the VC, old ones are gone.
	for i := uint64(0); i < 33; i++ {
		s.Access(0x30000+i*1024, 1)
	}
	recent := 0
	for i := uint64(31); i >= 24; i-- {
		if s.Access(0x30000+i*1024, 1) {
			recent++
		}
	}
	if recent < 4 {
		t.Fatalf("recent victims not retained: %d of 8", recent)
	}
	// The very first victims must be long gone (capacity 16).
	if v.st.Hits > uint64(recent)+16 {
		t.Fatalf("VC retained more than its capacity allows: %d hits", v.st.Hits)
	}
}

func TestHardware(t *testing.T) {
	s := mechtest.New(t, mechtest.L1Config())
	v := NewVC(s.Eng, s.Cache, 512)
	hw := v.Hardware()
	if len(hw) != 1 || hw[0].Bytes != 512 {
		t.Fatalf("hardware: %+v", hw)
	}
}
