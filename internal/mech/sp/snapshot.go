package sp

import (
	"encoding/gob"
	"fmt"

	"microlib/internal/statecopy"
)

// EntryState is one stride-table entry.
type EntryState struct {
	PCTag    uint32
	LastAddr uint64
	Stride   int64
	State    uint8
}

// State is the SP's full mutable state.
type State struct {
	Table  []EntryState
	Reads  uint64
	Writes uint64
	Issued uint64
}

// SnapState implements core.Snapshotter.
func (s *SP) SnapState(prev any) any { return statecopy.Recycle(prev, s.st) }

// RestoreState implements core.Snapshotter.
func (s *SP) RestoreState(v any) error {
	st, ok := v.(State)
	if !ok {
		return fmt.Errorf("sp: snapshot is %T, not sp.State", v)
	}
	if len(st.Table) != len(s.st.Table) {
		return fmt.Errorf("sp: snapshot has %d entries, table holds %d", len(st.Table), len(s.st.Table))
	}
	statecopy.CopyInto(&s.st, st)
	return nil
}

func init() { gob.Register(State{}) }
