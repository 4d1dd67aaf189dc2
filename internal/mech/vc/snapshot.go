package vc

import (
	"encoding/gob"
	"fmt"

	"microlib/internal/sim"
	"microlib/internal/statecopy"
)

// EntryState is one victim-cache entry.
type EntryState struct {
	LineAddr uint64
	Dirty    bool
	LastUse  uint64
}

// State is the VC's full mutable state.
type State struct {
	Entries []EntryState
	Tick    uint64
	Inserts uint64
	Hits    uint64
	Probes  uint64
	WBacks  uint64
}

// SnapState implements core.Snapshotter.
func (v *VC) SnapState(prev any) any { return statecopy.Recycle(prev, v.st) }

// RestoreState implements core.Snapshotter.
func (v *VC) RestoreState(x any) error {
	st, ok := x.(State)
	if !ok {
		return fmt.Errorf("vc: snapshot is %T, not vc.State", x)
	}
	if len(st.Entries) != len(v.st.Entries) {
		return fmt.Errorf("vc: snapshot has %d entries, cache holds %d", len(st.Entries), len(v.st.Entries))
	}
	statecopy.CopyInto(&v.st, st)
	return nil
}

func init() {
	gob.Register(State{})
	sim.RegisterFunc("vc.callMarkDirty", callMarkDirty)
}
