package tk

import (
	"testing"

	"microlib/internal/mech/mechtest"
)

func TestReplacementCorrelationPrefetch(t *testing.T) {
	s := mechtest.New(t, mechtest.L1Config())
	m := New(s.Eng, s.Cache, 64, 127, 8<<10) // fast refresh/threshold for the test
	s.Cache.Attach(m)

	a, b := uint64(0x10000), uint64(0x10000+1024) // same set
	// Teach the pattern "a is replaced by b" several times so the
	// correlation becomes confident.
	for i := 0; i < 4; i++ {
		s.Access(a, 1)
		s.Settle(20)
		s.Access(b, 1)
		s.Settle(20)
	}
	// Load a, let it decay past the threshold: TK should prefetch b.
	s.Access(a, 1)
	s.Settle(2000)
	if m.Issued() == 0 {
		t.Fatal("timekeeping never prefetched the correlated replacement")
	}
	// The pair ping-pongs (each predicts the other as replacement),
	// so one of the two ends up resident via prefetch.
	if !s.Cache.Contains(a) && !s.Cache.Contains(b) {
		t.Fatal("neither correlated line resident after prefetching")
	}
}

func TestLowConfidenceSilent(t *testing.T) {
	s := mechtest.New(t, mechtest.L1Config())
	m := New(s.Eng, s.Cache, 64, 127, 8<<10)
	s.Cache.Attach(m)
	// One observation only: confidence 1 < threshold, no prefetch.
	s.Access(0x20000, 1)
	s.Settle(20)
	s.Access(0x20000+1024, 1)
	s.Settle(2000)
	if m.Issued() != 0 {
		t.Fatalf("low-confidence correlation prefetched (%d)", m.Issued())
	}
}

func TestTKVCFiltersDeadVictims(t *testing.T) {
	s := mechtest.New(t, mechtest.L1Config())
	v := NewTKVC(s.Eng, s.Cache, 512, 100)
	s.Cache.Attach(v)

	a, b := uint64(0x30000), uint64(0x30000+1024)
	// Access a, let it idle far past the threshold, then evict: the
	// victim is dead and must be filtered.
	s.Access(a, 1)
	s.Settle(1000)
	s.Access(b, 1)
	if v.Filtered == 0 {
		t.Fatal("dead victim not filtered")
	}
	if v.VC.Inserts() != 0 {
		t.Fatal("dead victim inserted anyway")
	}
	// A freshly-touched victim must be kept.
	s.Access(a, 1) // evicts b (b was just touched -> kept)
	if v.VC.Inserts() == 0 {
		t.Fatal("live victim filtered")
	}
}

func TestNames(t *testing.T) {
	s := mechtest.New(t, mechtest.L1Config())
	if New(s.Eng, s.Cache, 512, 1023, 8<<10).Name() != "TK" {
		t.Fatal("TK name")
	}
	if NewTKVC(s.Eng, s.Cache, 512, 1023).Name() != "TKVC" {
		t.Fatal("TKVC name")
	}
}

func TestHardware(t *testing.T) {
	s := mechtest.New(t, mechtest.L1Config())
	m := New(s.Eng, s.Cache, 512, 1023, 8<<10)
	if len(m.Hardware()) != 2 {
		t.Fatalf("hardware: %+v", m.Hardware())
	}
	v := NewTKVC(s.Eng, s.Cache, 512, 1023)
	if len(v.Hardware()) != 2 {
		t.Fatalf("tkvc hardware: %+v", v.Hardware())
	}
}
