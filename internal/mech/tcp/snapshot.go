package tcp

import (
	"encoding/gob"
	"fmt"

	"microlib/internal/statecopy"
)

// THTEntryState is one tag-history entry: the set's last two miss
// tags, newest first.
type THTEntryState struct {
	Tags [2]uint64
}

// PHTEntryState is one pattern-history entry.
type PHTEntryState struct {
	Key  uint64
	Next uint64
	Conf int8
}

// State is the TCP's full mutable state.
type State struct {
	THT    []THTEntryState
	PHT    []PHTEntryState
	Reads  uint64
	Writes uint64
	Issued uint64
}

// SnapState implements core.Snapshotter.
func (t *TCP) SnapState(prev any) any { return statecopy.Recycle(prev, t.st) }

// RestoreState implements core.Snapshotter.
func (t *TCP) RestoreState(v any) error {
	st, ok := v.(State)
	if !ok {
		return fmt.Errorf("tcp: snapshot is %T, not tcp.State", v)
	}
	if len(st.THT) != len(t.st.THT) || len(st.PHT) != len(t.st.PHT) {
		return fmt.Errorf("tcp: snapshot geometry %d/%d, tables hold %d/%d",
			len(st.THT), len(st.PHT), len(t.st.THT), len(t.st.PHT))
	}
	statecopy.CopyInto(&t.st, st)
	return nil
}

func init() { gob.Register(State{}) }
