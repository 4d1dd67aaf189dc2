package markov

import (
	"testing"

	"microlib/internal/cache"
	"microlib/internal/mech/mechtest"
	"microlib/internal/sim"
)

func newL1(eng *sim.Engine) *cache.Cache {
	cfg := mechtest.L1Config()
	cfg.PrefetchQueueCap = 16
	return cache.New(eng, cfg, &mechtest.Backend{Eng: eng, Delay: 10})
}

// TestMarkovLearnsRepeatingTour drives a repeating miss sequence and
// checks the prefetcher learns it and produces buffer hits from the
// second pass on.
func TestMarkovLearnsRepeatingTour(t *testing.T) {
	eng := sim.NewEngine()
	l1 := newL1(eng)
	m := New(l1, 1<<20, 128)
	l1.Attach(m)

	// A tour of 64 lines that all conflict in the tiny 32-set cache,
	// so every pass misses.
	tour := make([]uint64, 64)
	for i := range tour {
		tour[i] = 0x100000 + uint64(i)*1024 // 1KB apart: same set in a 1KB cache
	}
	cycle := eng.Now()
	access := func(addr uint64) {
		for !l1.Access(&cache.Access{Addr: addr, PC: 0x400000}).Accepted() {
			cycle += 1
			eng.AdvanceTo(cycle)
		}
		cycle += 40
		eng.AdvanceTo(cycle)
	}
	for pass := 0; pass < 4; pass++ {
		for _, a := range tour {
			access(a)
		}
	}
	if m.st.Issued == 0 {
		t.Fatalf("markov never issued a prefetch (reads=%d writes=%d)", m.st.Reads, m.st.Writes)
	}
	if m.BufferHits() == 0 {
		t.Fatalf("markov never hit its buffer (issued=%d)", m.st.Issued)
	}
	t.Logf("issued=%d bufHits=%d reads=%d writes=%d", m.st.Issued, m.BufferHits(), m.st.Reads, m.st.Writes)
}
