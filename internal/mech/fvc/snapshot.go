package fvc

import (
	"encoding/gob"
	"fmt"

	"microlib/internal/statecopy"
)

// State is the FVC's full mutable state. The lineAddr->slot map is
// derivable from the ring (nonzero slots are resident), so only the
// ring travels.
type State struct {
	Ring     []uint64
	Pos      int
	Inserts  uint64
	Rejected uint64 // evictions that were not compressible
	Hits     uint64
	Probes   uint64
}

// SnapState implements core.Snapshotter.
func (f *FVC) SnapState(prev any) any { return statecopy.Recycle(prev, f.st) }

// RestoreState implements core.Snapshotter.
func (f *FVC) RestoreState(v any) error {
	st, ok := v.(State)
	if !ok {
		return fmt.Errorf("fvc: snapshot is %T, not fvc.State", v)
	}
	if len(st.Ring) != len(f.st.Ring) {
		return fmt.Errorf("fvc: snapshot has %d lines, ring holds %d", len(st.Ring), len(f.st.Ring))
	}
	statecopy.CopyInto(&f.st, st)
	clear(f.lines)
	for i, la := range f.st.Ring {
		if la != 0 {
			f.lines[la] = i
		}
	}
	return nil
}

func init() { gob.Register(State{}) }
