package ghb

import (
	"encoding/gob"
	"fmt"

	"microlib/internal/statecopy"
)

// BufEntryState is one history-buffer entry.
type BufEntryState struct {
	Addr uint64
	Prev int32 // index of this PC's previous miss, -1 if none
	Seq  uint64
}

// State is the GHB's full mutable state.
type State struct {
	IT     []int32 // index table: PC hash -> buffer index
	ITTags []uint64
	Buf    []BufEntryState
	BufPos int
	Seq    uint64
	Reads  uint64
	Writes uint64
	Issued uint64
	Walks  uint64
}

// SnapState implements core.Snapshotter.
func (g *GHB) SnapState(prev any) any { return statecopy.Recycle(prev, g.st) }

// RestoreState implements core.Snapshotter.
func (g *GHB) RestoreState(v any) error {
	st, ok := v.(State)
	if !ok {
		return fmt.Errorf("ghb: snapshot is %T, not ghb.State", v)
	}
	if len(st.IT) != len(g.st.IT) || len(st.ITTags) != len(g.st.ITTags) || len(st.Buf) != len(g.st.Buf) {
		return fmt.Errorf("ghb: snapshot geometry %d/%d, table holds %d/%d",
			len(st.IT), len(st.Buf), len(g.st.IT), len(g.st.Buf))
	}
	statecopy.CopyInto(&g.st, st)
	return nil
}

func init() { gob.Register(State{}) }
