package workload

import (
	"fmt"

	"microlib/internal/prng"
	"microlib/internal/statecopy"
)

// This file holds the generator's stream cursor, which warm-state
// checkpoints carry. Everything built from (profile, seed) — pattern
// regions, visit orders, loop/block templates, the oracle — lives in
// the shared program image and is reproduced by reconstruction; only
// the generator's own cursors travel in the snapshot.

// PatternState is the run-time state of one pattern: what advances as
// its addresses are emitted, one per generator.
type PatternState struct {
	Pos   uint64 // generic cursor
	Inner int    // tile inner step
	Field int    // chase field cursor
	// Chase state: one step cursor per independent chain, indexing
	// the shuffled visit order.
	ChainIdx int
	CurChain int // chain of the most recently emitted access
	NodeCur  []uint64
	RNG      prng.Source
}

// GeneratorState is the generator's full mutable state.
type GeneratorState struct {
	RNG prng.Source
	// LastSeq tracks, per pattern and chase chain, the sequence
	// number of the last pointer load (for chase and serial
	// dependences); shared across phases.
	LastSeq   [][]uint64
	Patterns  []PatternState
	PhaseIdx  int
	InPhase   uint64
	CurLoop   int
	LoopIters int
	BlockIdx  int
	InstIdx   int
	Seq       uint64
}

// StateInto captures the generator's stream cursor into *st, reusing
// its slices where their capacity suffices.
func (g *Generator) StateInto(st *GeneratorState) { statecopy.CopyInto(st, g.st) }

// SetState overwrites the generator's stream cursor from a snapshot
// taken on a generator built from the same (profile, seed).
func (g *Generator) SetState(st GeneratorState) error {
	if len(st.Patterns) != len(g.st.Patterns) || len(st.LastSeq) != len(g.st.LastSeq) {
		return fmt.Errorf("workload: snapshot has %d patterns/%d chains, generator holds %d/%d",
			len(st.Patterns), len(st.LastSeq), len(g.st.Patterns), len(g.st.LastSeq))
	}
	for i, ls := range st.LastSeq {
		if len(ls) != len(g.st.LastSeq[i]) {
			return fmt.Errorf("workload: snapshot pattern %d has %d chains, generator holds %d",
				i, len(ls), len(g.st.LastSeq[i]))
		}
	}
	for i := range st.Patterns {
		if n, have := len(st.Patterns[i].NodeCur), len(g.st.Patterns[i].NodeCur); n != have {
			return fmt.Errorf("workload: snapshot pattern %d has %d chase cursors, generator holds %d",
				i, n, have)
		}
	}
	statecopy.CopyInto(&g.st, st)
	return nil
}
