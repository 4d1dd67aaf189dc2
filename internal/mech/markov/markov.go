// Package markov implements the Markov Prefetcher (Joseph &
// Grunwald, 1997) at the L1: a large (1 MB) table records, per miss
// address, the most likely successor miss addresses (up to 4), and on
// each miss the predicted successors are prefetched into a dedicated
// 128-line prefetch buffer probed in parallel with the L1.
package markov

import (
	"microlib/internal/cache"
	"microlib/internal/core"
)

const predsPerEntry = 4

// Markov is the Markov prefetcher.
type Markov struct {
	l1   *cache.Cache
	mask uint64

	st     State          // all mutable state but buffer, snapshotted whole
	buffer map[uint64]int // derived index lineAddr -> st.Ring slot, rebuilt on restore
}

// New builds the prefetcher: tableBytes of correlation storage and a
// bufLines-entry prefetch buffer.
func New(l1 *cache.Cache, tableBytes, bufLines int) *Markov {
	return NewRecycling(l1, tableBytes, bufLines, Storage{})
}

// Storage is a Markov prefetcher's correlation table, detached by
// TakeStorage so that a later one can reuse it (NewRecycling) while
// nothing else of the old one stays reachable.
type Storage struct{ table []EntryState }

// TakeStorage implements core.Recycler: it detaches the correlation
// table. The prefetcher must not be used again.
func (m *Markov) TakeStorage() any {
	s := Storage{m.st.Table}
	m.st.Table = nil
	return s
}

// NewRecycling is New, except that the correlation table is spare's
// when spare holds exactly as many entries as the geometry needs (the
// zero Storage never does). The table is cleared, so the prefetcher
// starts exactly as a fresh one. Every other field is built fresh.
func NewRecycling(l1 *cache.Cache, tableBytes, bufLines int, spare Storage) *Markov {
	entrySize := 8 * (predsPerEntry + 1)
	n := 1
	for n*entrySize*2 <= tableBytes {
		n <<= 1
	}
	table := spare.table
	if len(table) == n {
		clear(table)
	} else {
		table = make([]EntryState, n)
	}
	return &Markov{
		l1:   l1,
		mask: uint64(n - 1),
		st: State{
			Table: table,
			Ring:  make([]uint64, bufLines),
		},
		buffer: make(map[uint64]int, bufLines),
	}
}

func init() {
	core.Register(core.Description{
		Name: "Markov", Level: "L1", Year: 1997,
		Summary: "Markov Prefetcher: per-address successor prediction into a prefetch buffer",
		Params:  []string{"tableBytes", "bufLines", "queue"},
	}, func(env *core.Env, p core.Params) (core.Mechanism, error) {
		spare, _ := env.Spare.(Storage)
		m := NewRecycling(env.L1D, p.Get("tableBytes", 1<<20), p.Get("bufLines", 128), spare)
		env.L1D.SetPrefetchQueueCap(p.Get("queue", 16))
		env.L1D.Attach(m)
		return m, nil
	})
}

// Name implements core.Mechanism.
func (m *Markov) Name() string { return "Markov" }

// OnMiss implements cache.MissObserver: learn prev->cur transition,
// then prefetch cur's predicted successors into the buffer.
func (m *Markov) OnMiss(lineAddr, pc uint64, now uint64) {
	if m.st.PrevMiss != 0 {
		m.learn(m.st.PrevMiss, lineAddr)
	}
	m.st.PrevMiss = lineAddr
	e := m.lookup(lineAddr)
	m.st.Reads++
	if e == nil {
		return
	}
	for _, p := range e.Preds {
		if p == 0 {
			continue
		}
		if _, in := m.buffer[p]; in {
			continue
		}
		m.st.Issued++
		m.l1.PrefetchInto(p, m)
	}
}

func (m *Markov) idx(lineAddr uint64) uint64 {
	return (lineAddr >> 5) & m.mask
}

func (m *Markov) lookup(lineAddr uint64) *EntryState {
	e := &m.st.Table[m.idx(lineAddr)]
	if e.Tag == lineAddr {
		return e
	}
	return nil
}

// learn records "after a miss on prev, a miss on next follows",
// most-recent-first with the remaining predictions shifted down.
func (m *Markov) learn(prev, next uint64) {
	e := &m.st.Table[m.idx(prev)]
	m.st.Writes++
	if e.Tag != prev {
		*e = EntryState{Tag: prev}
		e.Preds[0] = next
		return
	}
	for i, p := range e.Preds {
		if p == next {
			// Move to front.
			copy(e.Preds[1:i+1], e.Preds[:i])
			e.Preds[0] = next
			return
		}
	}
	copy(e.Preds[1:], e.Preds[:predsPerEntry-1])
	e.Preds[0] = next
}

// RedirectFill implements cache.RedirectSink: prefetched lines land
// in the buffer (not in the L1).
func (m *Markov) RedirectFill(lineAddr uint64, now uint64) {
	if old := m.st.Ring[m.st.RingPos]; old != 0 {
		delete(m.buffer, old)
	}
	m.st.Ring[m.st.RingPos] = lineAddr
	m.buffer[lineAddr] = m.st.RingPos
	m.st.RingPos = (m.st.RingPos + 1) % len(m.st.Ring)
}

// ProbeAux implements cache.AuxProber: a buffer hit promotes the line
// into the L1.
func (m *Markov) ProbeAux(lineAddr uint64, now uint64) bool {
	if i, ok := m.buffer[lineAddr]; ok {
		delete(m.buffer, lineAddr)
		m.st.Ring[i] = 0
		m.st.BufHits++
		return true
	}
	return false
}

// RepeatMisses implements cache.AuxProber: a buffer miss changes
// nothing.
func (m *Markov) RepeatMisses(n uint64) {}

// Hardware implements core.CostModeler: the big prediction table is
// what makes Markov's Figure 5 cost and power bars tower over the
// others.
func (m *Markov) Hardware() []core.HWTable {
	return []core.HWTable{
		{Label: "markov-table", Bytes: len(m.st.Table) * 8 * (predsPerEntry + 1), Assoc: 1, Ports: 1,
			Reads: m.st.Reads, Writes: m.st.Writes},
		{Label: "markov-buffer", Bytes: len(m.st.Ring) * 32, Assoc: 0, Ports: 1,
			Reads: m.st.BufHits + m.st.Issued, Writes: m.st.Issued},
	}
}

// BufferHits reports prefetch-buffer hits (tests).
func (m *Markov) BufferHits() uint64 { return m.st.BufHits }

// Reads reports correlation-table lookups (diagnostics).
func (m *Markov) Reads() uint64 { return m.st.Reads }

// Issued reports attempted prefetches (diagnostics).
func (m *Markov) Issued() uint64 { return m.st.Issued }
