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

type entryT struct {
	tag   uint64
	preds [predsPerEntry]uint64
}

// Markov is the Markov prefetcher.
type Markov struct {
	l1    *cache.Cache
	table []entryT
	mask  uint64

	// prefetch buffer: FIFO of bufSize lines.
	buffer  map[uint64]int // lineAddr -> ring index
	ring    []uint64
	ringPos int

	prevMiss uint64

	reads, writes uint64
	bufHits       uint64
	issued        uint64
}

// New builds the prefetcher: tableBytes of correlation storage and a
// bufLines-entry prefetch buffer.
func New(l1 *cache.Cache, tableBytes, bufLines int) *Markov {
	entrySize := 8 * (predsPerEntry + 1)
	n := 1
	for n*entrySize*2 <= tableBytes {
		n <<= 1
	}
	return &Markov{
		l1:     l1,
		table:  make([]entryT, n),
		mask:   uint64(n - 1),
		buffer: make(map[uint64]int, bufLines),
		ring:   make([]uint64, bufLines),
	}
}

func init() {
	core.Register(core.Description{
		Name: "Markov", Level: "L1", Year: 1997,
		Summary: "Markov Prefetcher: per-address successor prediction into a prefetch buffer",
		Params:  []string{"tableBytes", "bufLines", "queue"},
	}, func(env *core.Env, p core.Params) (core.Mechanism, error) {
		m := New(env.L1D, p.Get("tableBytes", 1<<20), p.Get("bufLines", 128))
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
	if m.prevMiss != 0 {
		m.learn(m.prevMiss, lineAddr)
	}
	m.prevMiss = lineAddr
	e := m.lookup(lineAddr)
	m.reads++
	if e == nil {
		return
	}
	for _, p := range e.preds {
		if p == 0 {
			continue
		}
		if _, in := m.buffer[p]; in {
			continue
		}
		m.issued++
		m.l1.PrefetchInto(p, m)
	}
}

func (m *Markov) idx(lineAddr uint64) uint64 {
	return (lineAddr >> 5) & m.mask
}

func (m *Markov) lookup(lineAddr uint64) *entryT {
	e := &m.table[m.idx(lineAddr)]
	if e.tag == lineAddr {
		return e
	}
	return nil
}

// learn records "after a miss on prev, a miss on next follows",
// most-recent-first with the remaining predictions shifted down.
func (m *Markov) learn(prev, next uint64) {
	e := &m.table[m.idx(prev)]
	m.writes++
	if e.tag != prev {
		*e = entryT{tag: prev}
		e.preds[0] = next
		return
	}
	for i, p := range e.preds {
		if p == next {
			// Move to front.
			copy(e.preds[1:i+1], e.preds[:i])
			e.preds[0] = next
			return
		}
	}
	copy(e.preds[1:], e.preds[:predsPerEntry-1])
	e.preds[0] = next
}

// RedirectFill implements cache.RedirectSink: prefetched lines land
// in the buffer (not in the L1).
func (m *Markov) RedirectFill(lineAddr uint64, now uint64) {
	if old := m.ring[m.ringPos]; old != 0 {
		delete(m.buffer, old)
	}
	m.ring[m.ringPos] = lineAddr
	m.buffer[lineAddr] = m.ringPos
	m.ringPos = (m.ringPos + 1) % len(m.ring)
}

// ProbeAux implements cache.AuxProber: a buffer hit promotes the line
// into the L1.
func (m *Markov) ProbeAux(lineAddr uint64, now uint64) bool {
	if i, ok := m.buffer[lineAddr]; ok {
		delete(m.buffer, lineAddr)
		m.ring[i] = 0
		m.bufHits++
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
		{Label: "markov-table", Bytes: len(m.table) * 8 * (predsPerEntry + 1), Assoc: 1, Ports: 1,
			Reads: m.reads, Writes: m.writes},
		{Label: "markov-buffer", Bytes: len(m.ring) * 32, Assoc: 0, Ports: 1,
			Reads: m.bufHits + m.issued, Writes: m.issued},
	}
}

// BufferHits reports prefetch-buffer hits (tests).
func (m *Markov) BufferHits() uint64 { return m.bufHits }

// Reads reports correlation-table lookups (diagnostics).
func (m *Markov) Reads() uint64 { return m.reads }

// Issued reports attempted prefetches (diagnostics).
func (m *Markov) Issued() uint64 { return m.issued }
