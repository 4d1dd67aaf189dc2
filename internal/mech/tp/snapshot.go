package tp

import (
	"encoding/gob"
	"fmt"

	"microlib/internal/statecopy"
)

// State is the TP's full mutable state: the per-line tag bits live in
// the cache model (serialized with the cache), so only counters remain.
type State struct {
	Triggers uint64
	Reads    uint64
	Writes   uint64
}

// SnapState implements core.Snapshotter.
func (t *TP) SnapState(prev any) any { return statecopy.Recycle(prev, t.st) }

// RestoreState implements core.Snapshotter.
func (t *TP) RestoreState(v any) error {
	st, ok := v.(State)
	if !ok {
		return fmt.Errorf("tp: snapshot is %T, not tp.State", v)
	}
	statecopy.CopyInto(&t.st, st)
	return nil
}

func init() { gob.Register(State{}) }
