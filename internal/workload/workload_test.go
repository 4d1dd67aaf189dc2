package workload

import (
	"testing"

	"microlib/internal/trace"
)

func TestNamesComplete(t *testing.T) {
	names := Names()
	if len(names) != 26 {
		t.Fatalf("%d benchmarks, want 26", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate benchmark %s", n)
		}
		seen[n] = true
		if _, ok := ByName(n); !ok {
			t.Fatalf("ByName(%s) failed", n)
		}
	}
	for _, n := range append(HighSensitivity(), LowSensitivity()...) {
		if !seen[n] {
			t.Fatalf("sensitivity set names unknown benchmark %s", n)
		}
	}
	for _, n := range append(DBCPSelection(), GHBSelection()...) {
		if !seen[n] {
			t.Fatalf("article selection names unknown benchmark %s", n)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := New("gcc", 42)
	b, _ := New("gcc", 42)
	var x, y trace.Inst
	for i := 0; i < 50_000; i++ {
		a.Next(&x)
		b.Next(&y)
		if x != y {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, x, y)
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	a, _ := New("gcc", 1)
	b, _ := New("gcc", 2)
	var x, y trace.Inst
	diff := false
	for i := 0; i < 1000; i++ {
		a.Next(&x)
		b.Next(&y)
		if x != y {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestInstructionMix(t *testing.T) {
	for _, name := range []string{"gzip", "swim"} {
		prof, _ := ByName(name)
		gen, _ := New(name, 42)
		var inst trace.Inst
		counts := map[trace.Class]int{}
		const n = 100_000
		for i := 0; i < n; i++ {
			gen.Next(&inst)
			counts[inst.Class]++
		}
		loadFrac := float64(counts[trace.Load]) / n
		storeFrac := float64(counts[trace.Store]) / n
		if loadFrac < prof.LoadFrac*0.6 || loadFrac > prof.LoadFrac*1.4 {
			t.Errorf("%s load frac %.3f, profile %.3f", name, loadFrac, prof.LoadFrac)
		}
		if storeFrac < prof.StoreFrac*0.6 || storeFrac > prof.StoreFrac*1.4 {
			t.Errorf("%s store frac %.3f, profile %.3f", name, storeFrac, prof.StoreFrac)
		}
		if counts[trace.Branch] == 0 {
			t.Errorf("%s has no branches", name)
		}
	}
}

// TestOracleChaseConsistency: following the pointers stored in memory
// must visit the same nodes the chase pattern emits.
func TestOracleChaseConsistency(t *testing.T) {
	gen, _ := New("mcf", 42)
	o := gen.Oracle()

	// Find mcf's chase pattern and walk it both ways.
	var (
		chase    *pattern
		chaseCur *patternCursor
	)
	for i := range gen.prog.patterns {
		if gen.prog.patterns[i].spec.Kind == PatChase {
			chase, chaseCur = &gen.prog.patterns[i], &gen.patterns[i]
			break
		}
	}
	if chase == nil {
		t.Fatal("mcf has no chase pattern")
	}
	// Pattern's first chain starts at order[cursor]; read the true
	// pointer from the oracle and check it names the next node of
	// that chain.
	cur := chaseCur.nodeCur[0]
	node := uint64(chase.order[cur])
	nodeAddr := chase.base + node*chase.spec.NodeSize
	ptr := o.Word(nodeAddr + chase.spec.PtrOff)
	wantNext := chase.base + uint64(chase.order[cur+1])*chase.spec.NodeSize
	if ptr != wantNext {
		t.Fatalf("oracle pointer %#x, pattern next node %#x", ptr, wantNext)
	}
	// And the pointer must look like a pointer.
	if tgt, ok := o.IsPointer(nodeAddr + chase.spec.PtrOff); !ok || tgt != ptr {
		t.Fatalf("IsPointer failed on a true pointer field")
	}
}

func TestOracleHeapBounds(t *testing.T) {
	gen, _ := New("gzip", 42)
	o := gen.Oracle()
	lo, hi := o.HeapBounds()
	if lo == 0 || hi <= lo {
		t.Fatalf("heap bounds %#x..%#x", lo, hi)
	}
	// Data words (high bit set) must never be pointers.
	if _, ok := o.IsPointer(lo + 8); ok {
		w := o.Word(lo + 8)
		if w < lo || w >= hi {
			t.Fatalf("IsPointer accepted out-of-heap value %#x", w)
		}
	}
}

func TestOracleFrequentValues(t *testing.T) {
	gen, _ := New("gzip", 42)
	o := gen.Oracle()
	fv := o.FrequentValues()
	set := map[uint64]bool{}
	for _, v := range fv {
		set[v] = true
	}
	if len(set) != 7 {
		t.Fatalf("frequent values not distinct: %v", fv)
	}
	// gzip's FV-dense tour region: most words should be frequent.
	// Sample the region of the tour pattern.
	tour, _ := findPattern(gen, PatTour)
	freq := 0
	const samples = 2000
	for i := 0; i < samples; i++ {
		w := o.Word(tour.base + uint64(i)*8)
		if set[w] {
			freq++
		}
	}
	if float64(freq)/samples < 0.6 {
		t.Fatalf("FV density %.2f in a 0.85-FV region", float64(freq)/samples)
	}
}

func TestLineCompressible(t *testing.T) {
	gen, _ := New("gzip", 42)
	o := gen.Oracle()
	tour, _ := findPattern(gen, PatTour)
	comp := 0
	for i := 0; i < 200; i++ {
		if o.LineCompressible(tour.base+uint64(i)*32, 32) {
			comp++
		}
	}
	if comp == 0 {
		t.Fatal("no compressible lines in an FV-dense region")
	}
}

// TestTourRepeats: the tour pattern must emit an identical address
// sequence on every pass (what correlation prefetchers learn).
func TestTourRepeats(t *testing.T) {
	gen, _ := New("gzip", 42)
	tour, tourCur := findPattern(gen, PatTour)
	n := len(tour.tour)
	first := make([]uint64, n)
	for i := 0; i < n; i++ {
		first[i], _ = tourCur.next(tour)
	}
	for i := 0; i < n; i++ {
		a, _ := tourCur.next(tour)
		if a != first[i] {
			t.Fatalf("tour diverged at %d", i)
		}
	}
}

// TestChaseIrregular: consecutive chase deltas must not be constant
// (otherwise stride prefetchers could predict pointer chains).
func TestChaseIrregular(t *testing.T) {
	gen, _ := New("equake", 42)
	chase, chaseCur := findPattern(gen, PatChase)
	var prev uint64
	deltas := map[int64]int{}
	for i := 0; i < 200; i++ {
		a, _ := chaseCur.next(chase)
		if i > 0 {
			deltas[int64(a)-int64(prev)]++
		}
		prev = a
	}
	for d, c := range deltas {
		if c > 120 {
			t.Fatalf("chase delta %d dominates (%d of 199)", d, c)
		}
	}
}

func TestPhaseWeightValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched weights accepted")
		}
	}()
	NewGenerator(Profile{
		Name: "bad", LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1,
		CodeKB: 16, BlockLen: 5, DepMean: 4,
		Patterns: []PatternSpec{{Kind: PatHot, Size: 4096}},
		Phases:   []PhaseSpec{{Len: 1000, Weights: []float64{1, 2}}},
	}, 1)
}

func TestDataPCStability(t *testing.T) {
	gen, _ := New("swim", 42)
	var inst trace.Inst
	pcsPerPattern := map[uint64]map[uint64]bool{} // region base -> dataPCs
	for i := 0; i < 200_000; i++ {
		gen.Next(&inst)
		if inst.DataPC == 0 || inst.Addr == 0 {
			continue
		}
		base := inst.Addr >> 21 // coarse region key
		if pcsPerPattern[base] == nil {
			pcsPerPattern[base] = map[uint64]bool{}
		}
		pcsPerPattern[base][inst.DataPC] = true
	}
	for base, pcs := range pcsPerPattern {
		if len(pcs) > dataPCsPerPattern+1 {
			t.Fatalf("region %#x touched by %d data PCs, want <= %d", base, len(pcs), dataPCsPerPattern+1)
		}
	}
}

// findPattern returns the generator's last pattern of a kind: its
// static image and the generator's cursor over it.
func findPattern(gen *Generator, kind PatternKind) (*pattern, *patternCursor) {
	var (
		p *pattern
		c *patternCursor
	)
	for i := range gen.prog.patterns {
		if gen.prog.patterns[i].spec.Kind == kind {
			p, c = &gen.prog.patterns[i], &gen.patterns[i]
		}
	}
	return p, c
}
