// Package ghb implements the Global History Buffer prefetcher
// (Nesbit & Smith, 2004) in its PC/DC (delta-correlation) form at
// the L2: an Index Table maps a load PC to the head of that PC's
// linked chain of past miss addresses inside a 256-entry circular
// buffer. On each miss the chain is walked to extract the recent
// delta stream; a constant stride or a recurring delta pair yields
// up to four prefetches (degree 4).
//
// The walk re-reads the buffer repeatedly on every miss and each miss
// can issue several requests — the activity profile behind the
// paper's observation that GHB is power-hungry despite its tiny
// tables, and bandwidth-hungry enough to lose 18.7% of its speedup
// when the detailed SDRAM replaces the constant-latency memory.
package ghb

import (
	"microlib/internal/cache"
	"microlib/internal/core"
)

// GHB is the global-history-buffer prefetcher.
type GHB struct {
	l2 *cache.Cache

	itMask uint32

	degree  int
	maxWalk int

	st State // all mutable state, snapshotted whole
}

// New builds a GHB with itEntries index-table entries and bufEntries
// history entries.
func New(l2 *cache.Cache, itEntries, bufEntries, degree int) *GHB {
	n := 1
	for n < itEntries {
		n <<= 1
	}
	g := &GHB{
		l2:      l2,
		itMask:  uint32(n - 1),
		degree:  degree,
		maxWalk: 8,
		st: State{
			IT:     make([]int32, n),
			ITTags: make([]uint64, n),
			Buf:    make([]BufEntryState, bufEntries),
		},
	}
	for i := range g.st.IT {
		g.st.IT[i] = -1
	}
	for i := range g.st.Buf {
		g.st.Buf[i].Prev = -1
	}
	return g
}

func init() {
	core.Register(core.Description{
		Name: "GHB", Level: "L2", Year: 2004,
		Summary: "Global History Buffer: PC-localized delta correlation, prefetch degree 4",
		Params:  []string{"itEntries", "ghbEntries", "degree", "queue"},
	}, func(env *core.Env, p core.Params) (core.Mechanism, error) {
		g := New(env.L2,
			p.Get("itEntries", 256),
			p.Get("ghbEntries", 256),
			p.Get("degree", 4))
		env.L2.SetPrefetchQueueCap(p.Get("queue", 4))
		env.L2.Attach(g)
		return g, nil
	})
}

// Name implements core.Mechanism.
func (g *GHB) Name() string { return "GHB" }

// OnMiss implements cache.MissObserver.
func (g *GHB) OnMiss(lineAddr, pc uint64, now uint64) {
	if pc == 0 {
		return
	}
	idx := (uint32(pc>>2) ^ uint32(pc>>11)) & g.itMask

	// Link the new miss into this PC's chain.
	g.st.Seq++
	pos := g.st.BufPos
	prev := int32(-1)
	if g.st.ITTags[idx] == pc && g.st.IT[idx] >= 0 {
		prev = g.st.IT[idx]
	}
	g.st.Buf[pos] = BufEntryState{Addr: lineAddr, Prev: prev, Seq: g.st.Seq}
	g.st.IT[idx] = int32(pos)
	g.st.ITTags[idx] = pc
	g.st.BufPos = (g.st.BufPos + 1) % len(g.st.Buf)
	g.st.Writes += 2 // IT update + GHB push

	// Walk the chain to collect the recent addresses, newest first.
	var hist [9]uint64
	n := 0
	cur := int32(pos)
	lastSeq := g.st.Seq + 1
	for cur >= 0 && n < g.maxWalk+1 {
		e := &g.st.Buf[cur]
		// Stop if the entry was overwritten since it was linked (the
		// circular buffer reuses slots).
		if e.Seq >= lastSeq {
			break
		}
		lastSeq = e.Seq
		hist[n] = e.Addr
		n++
		cur = e.Prev
		g.st.Reads++
	}
	g.st.Walks++
	if n < 3 {
		return
	}

	d1 := int64(hist[0]) - int64(hist[1])
	d2 := int64(hist[1]) - int64(hist[2])
	if d1 == 0 {
		return
	}

	if d1 == d2 {
		// Constant stride: prefetch degree lines ahead.
		for k := 1; k <= g.degree; k++ {
			g.st.Issued++
			g.l2.Prefetch(uint64(int64(lineAddr) + d1*int64(k)))
		}
		return
	}

	// Delta correlation: find the most recent earlier occurrence of
	// the (d2, d1) pair and replay the deltas that followed it.
	for i := 1; i+2 < n; i++ {
		e1 := int64(hist[i]) - int64(hist[i+1])
		e2 := int64(hist[i+1]) - int64(hist[i+2])
		g.st.Reads++
		if e1 == d1 && e2 == d2 {
			addr := int64(lineAddr)
			issued := 0
			// Replay deltas walking forward from the match toward the
			// present (hist is newest-first, so forward = decreasing
			// index).
			for j := i - 1; j >= 0 && issued < g.degree; j-- {
				delta := int64(hist[j]) - int64(hist[j+1])
				if delta == 0 {
					continue
				}
				addr += delta
				g.st.Issued++
				issued++
				g.l2.Prefetch(uint64(addr))
			}
			return
		}
	}
}

// Hardware implements core.CostModeler: both tables are tiny — the
// power comes from activity, not capacity.
func (g *GHB) Hardware() []core.HWTable {
	return []core.HWTable{
		{Label: "ghb-it", Bytes: len(g.st.IT) * 12, Assoc: 1, Ports: 1,
			Reads: g.st.Walks, Writes: g.st.Writes / 2},
		{Label: "ghb-buffer", Bytes: len(g.st.Buf) * 12, Assoc: 0, Ports: 1,
			Reads: g.st.Reads, Writes: g.st.Writes / 2},
	}
}

// Issued reports attempted prefetches (tests).
func (g *GHB) Issued() uint64 { return g.st.Issued }
