// Package tcp implements Tag Correlating Prefetching (Hu, Martonosi
// & Kaxiras, 2003) at the L2: a Tag History Table (THT, 1024 sets,
// direct-mapped, holding the last two miss tags per cache set) feeds
// a Pattern History Table (PHT, 8 KB, 256 sets, 8-way) that maps a
// (tag, tag) pair to the most likely next miss tag in that set; the
// predicted line is prefetched.
//
// The paper uses TCP as its "second-guessing" case study (its
// Figure 10): the article never stated how predicted addresses reach
// memory, and a 1-entry versus 128-entry prefetch request queue
// changes the results dramatically. Params{"queue": N} reproduces
// both choices.
package tcp

import (
	"microlib/internal/cache"
	"microlib/internal/core"
)

// TCP is the tag-correlating prefetcher.
type TCP struct {
	l2 *cache.Cache

	thtMask uint64
	phtSets int
	phtWays int

	lineShift uint
	setBits   uint
	setMask   uint64

	st State // all mutable state, snapshotted whole
}

// New builds a TCP attached to l2.
func New(l2 *cache.Cache, thtSets, phtSets, phtWays int) *TCP {
	cfg := l2.Config()
	ls := uint(0)
	for 1<<ls != cfg.LineSize {
		ls++
	}
	sb := uint(0)
	for 1<<sb != cfg.NumSets() {
		sb++
	}
	return &TCP{
		l2:        l2,
		thtMask:   uint64(thtSets - 1),
		phtSets:   phtSets,
		phtWays:   phtWays,
		lineShift: ls,
		setBits:   sb,
		setMask:   uint64(cfg.NumSets() - 1),
		st: State{
			THT: make([]THTEntryState, thtSets),
			PHT: make([]PHTEntryState, phtSets*phtWays),
		},
	}
}

func init() {
	core.Register(core.Description{
		Name: "TCP", Level: "L2", Year: 2003,
		Summary: "Tag Correlating Prefetching: per-set miss-tag pattern prediction",
		Params:  []string{"thtSets", "phtSets", "phtWays", "queue"},
	}, func(env *core.Env, p core.Params) (core.Mechanism, error) {
		t := New(env.L2, p.Get("thtSets", 1024), p.Get("phtSets", 256), p.Get("phtWays", 8))
		q := p.Get("queue", 128)
		env.L2.SetPrefetchQueueCap(q)
		if q < 128 {
			env.L2.ForcePrefetchQueueCap(q)
		}
		env.L2.Attach(t)
		return t, nil
	})
}

// Name implements core.Mechanism.
func (t *TCP) Name() string { return "TCP" }

// set and tag of a line address under the L2 geometry.
func (t *TCP) decompose(lineAddr uint64) (set, tag uint64) {
	idx := lineAddr >> t.lineShift
	return idx & t.setMask, idx >> t.setBits
}

func (t *TCP) compose(set, tag uint64) uint64 {
	return ((tag << t.setBits) | set) << t.lineShift
}

// OnMiss implements cache.MissObserver: learn the (t2,t1)->t0
// transition for this set, then predict the next tag from the fresh
// (t1,t0) pair.
func (t *TCP) OnMiss(lineAddr, pc uint64, now uint64) {
	set, tag := t.decompose(lineAddr)
	h := &t.st.THT[set&t.thtMask]
	t.st.Reads++

	prev1, prev0 := h.Tags[1], h.Tags[0]
	if prev0 != 0 {
		t.learn(set, prev1, prev0, tag)
	}
	h.Tags[1], h.Tags[0] = prev0, tag
	t.st.Writes++

	if next, ok := t.predict(set, prev0, tag); ok && next != tag {
		t.st.Issued++
		t.l2.Prefetch(t.compose(set, next))
	}
}

func (t *TCP) phtKey(set, t1, t0 uint64) uint64 {
	return set ^ (t1 << 7) ^ (t0 << 29) ^ 0x9e3779b97f4a7c15
}

func (t *TCP) phtSet(key uint64) []PHTEntryState {
	s := int(key>>5) % t.phtSets
	return t.st.PHT[s*t.phtWays : (s+1)*t.phtWays]
}

func (t *TCP) learn(set, t1, t0, next uint64) {
	key := t.phtKey(set, t1, t0)
	entries := t.phtSet(key)
	t.st.Writes++
	var victim *PHTEntryState
	for i := range entries {
		e := &entries[i]
		if e.Key == key {
			if e.Next == next {
				if e.Conf < 3 {
					e.Conf++
				}
			} else {
				e.Next = next
				e.Conf = 1
			}
			return
		}
		if victim == nil || e.Conf < victim.Conf {
			victim = e
		}
	}
	*victim = PHTEntryState{Key: key, Next: next, Conf: 1}
}

func (t *TCP) predict(set, t1, t0 uint64) (uint64, bool) {
	key := t.phtKey(set, t1, t0)
	t.st.Reads++
	for i := range t.phtSet(key) {
		e := &t.phtSet(key)[i]
		if e.Key == key && e.Conf >= 2 {
			return e.Next, true
		}
	}
	return 0, false
}

// Hardware implements core.CostModeler: THT (1024 sets × 2 tags) and
// the 8 KB PHT.
func (t *TCP) Hardware() []core.HWTable {
	return []core.HWTable{
		{Label: "tcp-tht", Bytes: len(t.st.THT) * 16, Assoc: 1, Ports: 1,
			Reads: t.st.Reads, Writes: t.st.Writes},
		{Label: "tcp-pht", Bytes: 8 << 10, Assoc: t.phtWays, Ports: 1,
			Reads: t.st.Reads, Writes: t.st.Writes},
	}
}

// Issued reports attempted prefetches (tests).
func (t *TCP) Issued() uint64 { return t.st.Issued }
