package ewb

import (
	"encoding/gob"
	"fmt"

	"microlib/internal/sim"
	"microlib/internal/statecopy"
)

// State is the EWB's full mutable state: the pending sweep is a
// calendar event and travels with the engine snapshot, the dirty bits
// it scans live in the cache.
type State struct {
	Eager uint64 // lines written back early
	Scans uint64
}

// SnapState implements core.Snapshotter.
func (e *EWB) SnapState(prev any) any { return statecopy.Recycle(prev, e.st) }

// RestoreState implements core.Snapshotter.
func (e *EWB) RestoreState(v any) error {
	st, ok := v.(State)
	if !ok {
		return fmt.Errorf("ewb: snapshot is %T, not ewb.State", v)
	}
	statecopy.CopyInto(&e.st, st)
	return nil
}

func init() {
	gob.Register(State{})
	sim.RegisterFunc("ewb.ewbFireScan", ewbFireScan)
}
