package sp

import (
	"testing"

	"microlib/internal/cache"
	"microlib/internal/mech/mechtest"
)

func drive(s *mechtest.System, pc uint64, addrs ...uint64) {
	for _, a := range addrs {
		s.Access(a, pc)
		s.Settle(50)
	}
}

func TestDetectsSteadyStride(t *testing.T) {
	s := mechtest.New(t, mechtest.L2Config())
	m := New(s.Cache, 512)
	s.Cache.SetPrefetchQueueCap(1)
	s.Cache.Attach(m)

	const pc = 0x400100
	// Stride 256: init -> transient -> steady; the steady access
	// prefetches addr+256.
	drive(s, pc, 0x10000, 0x10100, 0x10200, 0x10300)
	s.Settle(200)
	if m.Issued() == 0 {
		t.Fatal("steady stride never prefetched")
	}
	if !s.Cache.Contains(0x10400) {
		t.Fatal("predicted line not in cache")
	}
}

func TestStrideChangeResets(t *testing.T) {
	s := mechtest.New(t, mechtest.L2Config())
	m := New(s.Cache, 512)
	s.Cache.SetPrefetchQueueCap(1)
	s.Cache.Attach(m)

	const pc = 0x400104
	drive(s, pc, 0x20000, 0x20100, 0x20200) // steady at 256
	issuedAtSteady := m.Issued()
	drive(s, pc, 0x29000) // stride breaks
	// The very next access must not prefetch with the stale stride.
	before := m.Issued()
	drive(s, pc, 0x2a000)
	if m.Issued() > before+1 {
		t.Fatalf("prefetching continued through a stride change (%d -> %d)", before, m.Issued())
	}
	_ = issuedAtSteady
}

func TestDifferentPCsIndependent(t *testing.T) {
	s := mechtest.New(t, mechtest.L2Config())
	m := New(s.Cache, 512)
	s.Cache.SetPrefetchQueueCap(1)
	s.Cache.Attach(m)

	// Interleave two PCs (mapping to distinct table entries) with
	// different strides; both reach steady.
	pcs := [2]uint64{0x400200, 0x404244}
	base := [2]uint64{0x30000, 0x50000}
	stride := [2]uint64{128, 512}
	for i := 0; i < 5; i++ {
		for k := 0; k < 2; k++ {
			s.Access(base[k]+uint64(i)*stride[k], pcs[k])
			s.Settle(50)
		}
	}
	s.Settle(300)
	if !s.Cache.Contains(base[0]+5*stride[0]) && !s.Cache.Contains(base[1]+5*stride[1]) {
		t.Fatal("neither interleaved stream was predicted")
	}
}

func TestIgnoresWritesAndZeroPC(t *testing.T) {
	s := mechtest.New(t, mechtest.L2Config())
	m := New(s.Cache, 512)
	s.Cache.Attach(m)
	s.Cache.Access(&cache.Access{Addr: 0x1000, Write: true, PC: 0x400000})
	s.Cache.Access(&cache.Access{Addr: 0x2000, PC: 0})
	s.Settle(100)
	if m.st.Reads != 0 {
		t.Fatal("SP observed writes or PC-less accesses")
	}
}

func TestHardwareTable(t *testing.T) {
	s := mechtest.New(t, mechtest.L2Config())
	m := New(s.Cache, 512)
	hw := m.Hardware()
	if len(hw) != 1 || hw[0].Bytes != 512*16 {
		t.Fatalf("hardware: %+v", hw)
	}
}
