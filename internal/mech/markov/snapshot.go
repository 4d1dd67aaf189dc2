package markov

import (
	"encoding/gob"
	"fmt"

	"microlib/internal/statecopy"
)

// EntryState is one correlation-table entry: a miss address and its
// most likely successors, most recent first.
type EntryState struct {
	Tag   uint64
	Preds [predsPerEntry]uint64
}

// State is the Markov prefetcher's full mutable state. The prefetch
// buffer is a FIFO ring of lines; its lineAddr->slot map is derivable
// from the ring (nonzero slots are resident), so only the ring
// travels.
type State struct {
	Table    []EntryState
	Ring     []uint64
	RingPos  int
	PrevMiss uint64
	Reads    uint64
	Writes   uint64
	BufHits  uint64
	Issued   uint64
}

// SnapState implements core.Snapshotter.
func (m *Markov) SnapState(prev any) any { return statecopy.Recycle(prev, m.st) }

// RestoreState implements core.Snapshotter.
func (m *Markov) RestoreState(v any) error {
	st, ok := v.(State)
	if !ok {
		return fmt.Errorf("markov: snapshot is %T, not markov.State", v)
	}
	if len(st.Table) != len(m.st.Table) || len(st.Ring) != len(m.st.Ring) {
		return fmt.Errorf("markov: snapshot geometry %d/%d, config holds %d/%d",
			len(st.Table), len(st.Ring), len(m.st.Table), len(m.st.Ring))
	}
	statecopy.CopyInto(&m.st, st)
	clear(m.buffer)
	for i, la := range m.st.Ring {
		if la != 0 {
			m.buffer[la] = i
		}
	}
	return nil
}

func init() { gob.Register(State{}) }
