package statecopy

import (
	"reflect"
	"strings"
	"testing"
)

type entry struct {
	Tag     uint64
	Waiters []uint64
}

type state struct {
	Name    string
	Table   []entry
	Ring    []uint64
	Grid    [][]uint64
	Pair    [2]entry
	Counter uint64
}

func sample() state {
	return state{
		Name:    "s",
		Table:   []entry{{Tag: 1, Waiters: []uint64{2, 3}}, {Tag: 4}},
		Ring:    []uint64{5, 6, 7},
		Grid:    [][]uint64{{8}, {9, 10}},
		Pair:    [2]entry{{Tag: 11, Waiters: []uint64{12}}},
		Counter: 13,
	}
}

// TestCloneSharesNothing mutates every slice of the source after the
// clone; the clone must not see any of it.
func TestCloneSharesNothing(t *testing.T) {
	src := sample()
	c := Clone(src)
	if !reflect.DeepEqual(c, src) {
		t.Fatalf("clone differs from source:\n%+v\n%+v", c, src)
	}
	src.Table[0].Tag = 99
	src.Table[0].Waiters[0] = 99
	src.Ring[0] = 99
	src.Grid[1][0] = 99
	src.Pair[0].Waiters[0] = 99
	if !reflect.DeepEqual(c, sample()) {
		t.Fatalf("clone changed with its source: %+v", c)
	}
}

func TestCloneEmptyIsNil(t *testing.T) {
	c := Clone(state{Ring: []uint64{}})
	if c.Table != nil || c.Ring != nil {
		t.Fatalf("empty slices cloned non-nil: %+v", c)
	}
}

// TestCopyIntoReusesCapacity restores into a destination with room
// for every slice: nothing may allocate, and the destination's
// backing arrays must be the ones written.
func TestCopyIntoReusesCapacity(t *testing.T) {
	src := sample()
	dst := Clone(src)
	ring := &dst.Ring[0]
	allocs := testing.AllocsPerRun(100, func() { CopyInto(&dst, src) })
	if allocs != 0 {
		t.Fatalf("CopyInto allocated %.1f times with sufficient capacity", allocs)
	}
	if &dst.Ring[0] != ring {
		t.Fatal("CopyInto replaced a backing array it could reuse")
	}
	src.Ring[0] = 99
	if dst.Ring[0] == 99 {
		t.Fatal("CopyInto aliased the source")
	}
}

func TestCopyIntoGrowsAndShrinks(t *testing.T) {
	var dst state
	CopyInto(&dst, sample())
	if !reflect.DeepEqual(dst, sample()) {
		t.Fatalf("grow: %+v", dst)
	}
	short := sample()
	short.Ring = short.Ring[:1]
	short.Table[0].Waiters = nil
	CopyInto(&dst, short)
	if len(dst.Ring) != 1 || len(dst.Table[0].Waiters) != 0 {
		t.Fatalf("shrink: %+v", dst)
	}
}

func TestReferencesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "reference") {
			t.Fatalf("map state did not panic as a reference: %v", r)
		}
	}()
	Clone(struct{ M map[int]int }{M: map[int]int{1: 1}})
}
