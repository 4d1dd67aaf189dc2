package workload

import (
	"testing"
	"testing/quick"

	"microlib/internal/trace"
)

// TestPropertyAllBenchmarksWellFormed: every benchmark, under random
// seeds, emits well-formed instructions (memory ops have addresses,
// others do not; dependences point backward; PCs are in the text
// segment).
func TestPropertyAllBenchmarksWellFormed(t *testing.T) {
	names := Names()
	err := quick.Check(func(seedRaw uint32, pick uint8) bool {
		name := names[int(pick)%len(names)]
		gen, err := New(name, uint64(seedRaw)+1)
		if err != nil {
			return false
		}
		var inst trace.Inst
		for i := 0; i < 3000; i++ {
			gen.Next(&inst)
			if inst.Class.IsMem() && inst.Addr == 0 {
				return false
			}
			if !inst.Class.IsMem() && inst.Addr != 0 {
				return false
			}
			if inst.PC < codeBase || inst.PC >= heapBase {
				return false
			}
			if inst.Mispredict && inst.Class != trace.Branch {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPropertyOracleDeterministic: the oracle is a pure function of
// (benchmark, seed, address).
func TestPropertyOracleDeterministic(t *testing.T) {
	g1, _ := New("mcf", 7)
	g2, _ := New("mcf", 7)
	err := quick.Check(func(a uint32) bool {
		addr := uint64(a) + heapBase
		return g1.Oracle().Word(addr) == g2.Oracle().Word(addr)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPropertyChasePointersAlwaysInRegion: every true pointer the
// oracle produces targets a node inside its own region.
func TestPropertyChasePointersAlwaysInRegion(t *testing.T) {
	gen, _ := New("equake", 42)
	o := gen.Oracle()
	chase, _ := findPattern(gen, PatChase)
	nodes := chase.spec.Size / chase.spec.NodeSize
	err := quick.Check(func(nRaw uint32) bool {
		node := uint64(nRaw) % nodes
		addr := chase.base + node*chase.spec.NodeSize + chase.spec.PtrOff
		ptr := o.Word(addr)
		return ptr >= chase.base && ptr < chase.base+chase.spec.Size &&
			(ptr-chase.base)%chase.spec.NodeSize == 0
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPhaseCycling: the generator cycles through its phases and back.
func TestPhaseCycling(t *testing.T) {
	gen, _ := New("gcc", 42) // three phases
	var inst trace.Inst
	var total uint64
	for _, ph := range gen.prog.prof.Phases {
		total += ph.Len
	}
	bbsFirst := map[uint32]bool{}
	for i := uint64(0); i < gen.prog.prof.Phases[0].Len; i++ {
		gen.Next(&inst)
		bbsFirst[inst.BB] = true
	}
	// Second phase uses different code blocks.
	seenNew := false
	for i := uint64(0); i < gen.prog.prof.Phases[1].Len; i++ {
		gen.Next(&inst)
		if !bbsFirst[inst.BB] {
			seenNew = true
		}
	}
	if !seenNew {
		t.Fatal("phase 2 reuses only phase 1 blocks")
	}
	// After a full cycle the first phase's blocks return.
	for i := gen.prog.prof.Phases[0].Len + gen.prog.prof.Phases[1].Len; i < total; i++ {
		gen.Next(&inst)
	}
	gen.Next(&inst)
	if !bbsFirst[inst.BB] {
		t.Fatal("phase cycle did not return to the first phase's code")
	}
}
