// Package sp implements Stride Prefetching (Chen & Baer; Fu, Patel &
// Janssens, 1992) at the L2: a 512-entry PC-indexed table tracks the
// last address and stride of each load instruction with a two-bit
// state machine; loads in the steady state prefetch address+stride.
// The request queue is a single entry (Table 3), which throttles the
// mechanism's bandwidth demand — the property that keeps SP nearly
// unaffected by the move to a detailed SDRAM (the paper measures
// -2.8% versus GHB's -18.7%).
package sp

import (
	"microlib/internal/cache"
	"microlib/internal/core"
)

const (
	stInit uint8 = iota
	stTransient
	stSteady
)

// SP is the stride prefetcher.
type SP struct {
	l2     *cache.Cache
	mask   uint32
	degree int

	st State // all mutable state, snapshotted whole
}

// New builds a stride prefetcher with nEntries table entries
// attached to l2.
func New(l2 *cache.Cache, nEntries int) *SP {
	n := 1
	for n < nEntries {
		n <<= 1
	}
	return &SP{l2: l2, mask: uint32(n - 1), degree: 1, st: State{Table: make([]EntryState, n)}}
}

func init() {
	core.Register(core.Description{
		Name: "SP", Level: "L2", Year: 1992,
		Summary: "Stride Prefetching: PC-indexed stride detection with steady-state prefetch",
		Params:  []string{"entries", "queue"},
	}, func(env *core.Env, p core.Params) (core.Mechanism, error) {
		s := New(env.L2, p.Get("entries", 512))
		env.L2.SetPrefetchQueueCap(p.Get("queue", 1))
		env.L2.Attach(s)
		return s, nil
	})
}

// Name implements core.Mechanism.
func (s *SP) Name() string { return "SP" }

// OnAccess implements cache.AccessObserver: stride detection over the
// L2's demand reference stream (which is the L1 miss stream, carrying
// the missing load's PC).
func (s *SP) OnAccess(ev cache.AccessEvent) {
	if ev.Write || ev.PC == 0 {
		return
	}
	idx := (uint32(ev.PC>>2) ^ uint32(ev.PC>>13)) & s.mask
	e := &s.st.Table[idx]
	s.st.Reads++
	tag := uint32(ev.PC >> 2)
	if e.PCTag != tag {
		*e = EntryState{PCTag: tag, LastAddr: ev.Addr, State: stInit}
		s.st.Writes++
		return
	}
	delta := int64(ev.Addr) - int64(e.LastAddr)
	switch {
	case delta == 0:
		// Same address again: no information.
	case delta == e.Stride:
		if e.State < stSteady {
			e.State++
		}
	default:
		e.Stride = delta
		if e.State == stSteady {
			e.State = stTransient
		} else {
			e.State = stInit
		}
	}
	e.LastAddr = ev.Addr
	s.st.Writes++
	if e.State == stSteady && e.Stride != 0 {
		for d := 1; d <= s.degree; d++ {
			target := uint64(int64(ev.Addr) + e.Stride*int64(d))
			s.st.Issued++
			s.l2.Prefetch(target)
		}
	}
}

// Hardware implements core.CostModeler: 512 entries of roughly
// 16 bytes.
func (s *SP) Hardware() []core.HWTable {
	return []core.HWTable{{
		Label: "sp-table", Bytes: len(s.st.Table) * 16, Assoc: 1, Ports: 1,
		Reads: s.st.Reads, Writes: s.st.Writes,
	}}
}

// Issued reports attempted prefetches (tests).
func (s *SP) Issued() uint64 { return s.st.Issued }
