package workload

import "fmt"

// This file serializes the generator's stream cursor for warm-state
// checkpointing. Everything built from (profile, seed) — pattern
// regions, visit orders, loop/block templates, the oracle — lives in
// the shared program image and is reproduced by reconstruction; only
// the generator's own cursors travel in the snapshot.

// PatternState is one access pattern's mutable cursor state.
type PatternState struct {
	Pos      uint64
	Inner    int
	Field    int
	ChainIdx int
	CurChain int
	NodeCur  []uint64
	RNG      [4]uint64
}

// GeneratorState is the generator's full mutable state.
type GeneratorState struct {
	RNG       [4]uint64
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

// State captures the generator's stream cursor.
func (g *Generator) State() GeneratorState {
	st := GeneratorState{
		RNG:      g.rng.State(),
		PhaseIdx: g.phaseIdx, InPhase: g.inPhase,
		CurLoop: g.curLoop, LoopIters: g.loopIters,
		BlockIdx: g.blockIdx, InstIdx: g.instIdx,
		Seq: g.seq,
	}
	st.LastSeq = make([][]uint64, len(g.lastSeq))
	for i, ls := range g.lastSeq {
		st.LastSeq[i] = append([]uint64(nil), ls...)
	}
	st.Patterns = make([]PatternState, len(g.patterns))
	for i := range g.patterns {
		c := &g.patterns[i]
		st.Patterns[i] = PatternState{
			Pos: c.pos, Inner: c.inner, Field: c.field,
			ChainIdx: c.chainIdx, CurChain: c.curChain,
			NodeCur: append([]uint64(nil), c.nodeCur...),
			RNG:     c.rng.State(),
		}
	}
	return st
}

// SetState overwrites the generator's stream cursor from a snapshot
// taken on a generator built from the same (profile, seed).
func (g *Generator) SetState(st GeneratorState) error {
	if len(st.Patterns) != len(g.patterns) || len(st.LastSeq) != len(g.lastSeq) {
		return fmt.Errorf("workload: snapshot has %d patterns/%d chains, generator holds %d/%d",
			len(st.Patterns), len(st.LastSeq), len(g.patterns), len(g.lastSeq))
	}
	for i, ls := range st.LastSeq {
		if len(ls) != len(g.lastSeq[i]) {
			return fmt.Errorf("workload: snapshot pattern %d has %d chains, generator holds %d",
				i, len(ls), len(g.lastSeq[i]))
		}
	}
	g.rng.SetState(st.RNG)
	for i, ls := range st.LastSeq {
		copy(g.lastSeq[i], ls)
	}
	for i := range st.Patterns {
		ps := &st.Patterns[i]
		c := &g.patterns[i]
		if len(ps.NodeCur) != len(c.nodeCur) {
			return fmt.Errorf("workload: snapshot pattern %d has %d chase cursors, generator holds %d",
				i, len(ps.NodeCur), len(c.nodeCur))
		}
		c.pos, c.inner, c.field = ps.Pos, ps.Inner, ps.Field
		c.chainIdx, c.curChain = ps.ChainIdx, ps.CurChain
		copy(c.nodeCur, ps.NodeCur)
		c.rng.SetState(ps.RNG)
	}
	g.phaseIdx, g.inPhase = st.PhaseIdx, st.InPhase
	g.curLoop, g.loopIters = st.CurLoop, st.LoopIters
	g.blockIdx, g.instIdx = st.BlockIdx, st.InstIdx
	g.seq = st.Seq
	return nil
}
