package fvc

import (
	"testing"

	"microlib/internal/cache"
	"microlib/internal/mech/mechtest"
)

// oracle marks one region as all-frequent-values and the rest as
// incompressible.
type oracle struct {
	fvLo, fvHi uint64
}

func (o *oracle) Word(addr uint64) uint64 {
	if addr >= o.fvLo && addr < o.fvHi {
		return 0 // the canonical frequent value
	}
	return 0x8000_0000_dead_beef
}

func (o *oracle) IsPointer(addr uint64) (uint64, bool) { return 0, false }

func newSystem(t *testing.T) (*mechtest.System, *FVC) {
	s := mechtest.New(t, mechtest.L1Config())
	f := New(s.Cache, &oracle{fvLo: 0x10000, fvHi: 0x20000},
		[]uint64{0, 1, 2, 3, 4, 5, 6}, 64)
	s.Cache.Attach(f)
	return s, f
}

func TestCompressibleLinesRetained(t *testing.T) {
	s, f := newSystem(t)
	a, b := uint64(0x10000), uint64(0x10000+1024) // FV region, same set
	s.Access(a, 1)
	s.Access(b, 1) // evicts a; compressible -> stored
	if f.st.Inserts != 1 {
		t.Fatalf("inserts %d", f.st.Inserts)
	}
	if !s.Access(a, 1) {
		t.Fatal("FVC did not service the compressible line")
	}
	if f.st.Hits != 1 {
		t.Fatalf("hits %d", f.st.Hits)
	}
}

func TestIncompressibleRejected(t *testing.T) {
	s, f := newSystem(t)
	a, b := uint64(0x40000), uint64(0x40000+1024) // outside FV region
	s.Access(a, 1)
	s.Access(b, 1)
	if f.st.Inserts != 0 || f.st.Rejected == 0 {
		t.Fatalf("incompressible line stored: inserts=%d rejected=%d", f.st.Inserts, f.st.Rejected)
	}
	fetches := len(s.Back.Fetches)
	s.Access(a, 1) // must refetch downstream
	if len(s.Back.Fetches) == fetches {
		t.Fatal("miss serviced without fetch")
	}
}

func TestDirtyNotRetained(t *testing.T) {
	s, f := newSystem(t)
	a, b := uint64(0x10000), uint64(0x10000+1024)
	s.Access(a, 1)
	// Dirty it, then evict: the stale compressed copy must not be
	// kept.
	if !s.Cache.Access(&cache.Access{Addr: a, Write: true}).Accepted() {
		t.Fatal("write refused")
	}
	s.Settle(50)
	s.Access(b, 1)
	if f.st.Inserts != 0 {
		t.Fatal("dirty line retained in compressed form")
	}
}

func TestHardware(t *testing.T) {
	_, f := newSystem(t)
	hw := f.Hardware()
	if len(hw) != 1 || hw[0].Bytes != 64*8 {
		t.Fatalf("hardware: %+v", hw)
	}
}
