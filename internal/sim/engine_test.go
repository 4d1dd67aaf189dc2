package sim

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	eng := NewEngine()
	var got []uint64
	for _, d := range []uint64{5, 1, 3, 2, 4} {
		d := d
		after(eng, d, func() { got = append(got, d) })
	}
	eng.AdvanceTo(10)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
}

func TestSameCycleFIFO(t *testing.T) {
	eng := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		at(eng, 7, func() { got = append(got, i) })
	}
	eng.AdvanceTo(7)
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-cycle events not FIFO: %v", got)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	eng := NewEngine()
	eng.AdvanceTo(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	at(eng, 5, func() {})
}

func TestAdvanceSetsNow(t *testing.T) {
	eng := NewEngine()
	eng.AdvanceTo(42)
	if eng.Now() != 42 {
		t.Fatalf("Now=%d, want 42", eng.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	eng := NewEngine()
	var fired []uint64
	at(eng, 5, func() {
		fired = append(fired, eng.Now())
		after(eng, 3, func() { fired = append(fired, eng.Now()) })
	})
	eng.AdvanceTo(20)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 8 {
		t.Fatalf("nested events: %v", fired)
	}
}

func TestDrainLimit(t *testing.T) {
	eng := NewEngine()
	ran := 0
	for i := uint64(1); i <= 10; i++ {
		at(eng, i, func() { ran++ })
	}
	n := eng.Drain(5)
	if n != 5 || ran != 5 {
		t.Fatalf("drained %d/%d, want 5", n, ran)
	}
	if eng.Pending() != 5 {
		t.Fatalf("pending %d, want 5", eng.Pending())
	}
}

func TestStats(t *testing.T) {
	eng := NewEngine()
	after(eng, 1, func() {})
	after(eng, 2, func() {})
	eng.AdvanceTo(3)
	sched, exec := eng.Stats()
	if sched != 2 || exec != 2 {
		t.Fatalf("stats %d/%d, want 2/2", sched, exec)
	}
}

// TestPropertyTimestampMonotonic checks, over random schedules, that
// handlers observe a non-decreasing clock.
func TestPropertyTimestampMonotonic(t *testing.T) {
	err := quick.Check(func(delays []uint8) bool {
		eng := NewEngine()
		last := uint64(0)
		ok := true
		for _, d := range delays {
			after(eng, uint64(d%32), func() {
				if eng.Now() < last {
					ok = false
				}
				last = eng.Now()
			})
		}
		eng.AdvanceTo(64)
		return ok
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotUnregisteredFunc checks that a pending event whose Func
// was never registered makes Snapshot fail, naming the event's cycle:
// such an event could not be rebuilt on restore.
func TestSnapshotUnregisteredFunc(t *testing.T) {
	eng := NewEngine()
	eng.AtFunc(1234, func(uint64, any, any, uint64, uint64) {}, nil, nil, 0, 0)
	_, err := eng.Snapshot(func(any) (OpRef, bool) { return OpRef{}, false })
	if err == nil {
		t.Fatal("Snapshot accepted a pending event with an unregistered Func")
	}
	if !strings.Contains(err.Error(), "unregistered") || !strings.Contains(err.Error(), "1234") {
		t.Fatalf("Snapshot error %q does not name the unregistered Func's cycle 1234", err)
	}
}
