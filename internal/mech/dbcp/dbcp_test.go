package dbcp

import (
	"testing"

	"microlib/internal/cache"
	"microlib/internal/mech/mechtest"
	"microlib/internal/sim"
)

// TestDBCPLearnsRepeatingTour drives a repeating conflict tour with a
// stable PC per line and checks that dead-block correlation
// eventually predicts and prefetches.
func TestDBCPLearnsRepeatingTour(t *testing.T) {
	eng := sim.NewEngine()
	l1 := cache.New(eng, mechtest.L1Config(), &mechtest.Backend{Eng: eng, Delay: 10})
	d := New(l1, Config{})
	l1.Attach(d)

	tour := make([]uint64, 64)
	pcs := make([]uint64, 64)
	for i := range tour {
		tour[i] = 0x100000 + uint64(i)*1024 // same set in a 1KB cache
		pcs[i] = 0x400000 + uint64(i%4)*4   // stable small PC set
	}
	cycle := eng.Now()
	access := func(addr, pc uint64) {
		for !l1.Access(&cache.Access{Addr: addr, PC: pc}).Accepted() {
			cycle++
			eng.AdvanceTo(cycle)
		}
		cycle += 40
		eng.AdvanceTo(cycle)
	}
	for pass := 0; pass < 8; pass++ {
		for i, a := range tour {
			access(a, pcs[i])
		}
	}
	t.Logf("reads=%d writes=%d preds=%d pfIssued=%d pfUseful=%d",
		d.reads, d.writes, d.Predictions(), l1.Stats().PrefetchIssued, l1.Stats().PrefetchUseful)
	if d.Predictions() == 0 {
		t.Fatal("DBCP never predicted on a perfectly repeating dead-block stream")
	}
}
