package bus

import "microlib/internal/statecopy"

// State is the full mutable state of a Bus, for warm-state
// checkpointing. Geometry (width, clock ratio) is configuration, not
// state: a restored bus is rebuilt from the same config and only
// these fields are overwritten.
type State struct {
	FreeAt     uint64
	Transfers  uint64
	BusyCycles uint64
	WaitCycles uint64
}

// State captures the bus's mutable state.
func (b *Bus) State() State { return statecopy.Clone(b.st) }

// SetState overwrites the bus's mutable state from a snapshot.
func (b *Bus) SetState(st State) { statecopy.CopyInto(&b.st, st) }
