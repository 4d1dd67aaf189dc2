// Package workload synthesizes the 26 SPEC CPU2000 benchmarks as
// deterministic instruction-stream models.
//
// The real benchmarks are unavailable in this environment (they are
// licensed binaries compiled for Alpha with specific DEC compilers),
// so each benchmark is modeled as a phase-structured program: a set
// of loops (giving stable PCs and basic-block vectors), whose memory
// slots are bound to access-pattern state machines (strides, tiles,
// pointer chases, repeatable irregular tours, conflicts, random),
// with per-benchmark instruction mixes, dependence distances, branch
// predictability, code footprints and value locality. A per-benchmark
// value oracle supplies memory contents consistent with the pointer
// structures, which is what content-inspecting mechanisms (CDP, FVC)
// consume. DESIGN.md documents this substitution.
//
// Phases share one pattern set and differ only in weights and code,
// mirroring real programs, whose phases revisit the same data
// structures with different emphasis.
package workload

import (
	"fmt"

	"microlib/internal/trace"
)

// PhaseSpec is one program phase: for Len dynamic instructions the
// benchmark's shared pattern set is exercised with this phase's
// weights (one per Profile.Patterns entry; zero disables a pattern
// in the phase).
type PhaseSpec struct {
	Len     uint64    `json:"len"`
	Weights []float64 `json:"weights"`
}

// Profile is the static description of one synthetic benchmark. The
// JSON encoding (see codec.go) is the campaign-spec form of an
// inline custom workload; field order is the canonical serialization
// order, so do not reorder fields without bumping the runner
// fingerprint version.
type Profile struct {
	Name string `json:"name"`
	FP   bool   `json:"fp,omitempty"`
	// Instruction mix (fractions of the dynamic stream).
	LoadFrac  float64 `json:"load_frac"`
	StoreFrac float64 `json:"store_frac"`
	// BranchFrac is descriptive only: realized branch density is one
	// block-ending branch per BlockLen instructions, so set BlockLen
	// ≈ 1/BranchFrac rather than expecting this field to act.
	BranchFrac float64 `json:"branch_frac,omitempty"`
	// Mispredict is the branch misprediction rate.
	Mispredict float64 `json:"mispredict,omitempty"`
	// CodeKB approximates the active code footprint.
	CodeKB int `json:"code_kb,omitempty"`
	// BlockLen is the mean basic-block length in instructions.
	BlockLen int `json:"block_len,omitempty"`
	// DepMean is the mean register-dependence distance.
	DepMean float64 `json:"dep_mean,omitempty"`
	// FVProb is the benchmark's frequent-value density.
	FVProb float64 `json:"fv_prob,omitempty"`
	// Patterns is the benchmark's shared access-pattern set.
	Patterns []PatternSpec `json:"patterns"`
	Phases   []PhaseSpec   `json:"phases"`
}

// codeBase is where synthetic text segments start; heap regions are
// allocated above heapBase.
const (
	codeBase = 0x0040_0000
	heapBase = 0x1000_0000
)

// dataPCsPerPattern is the number of distinct static instruction
// identities a non-hot pattern presents to the memory system. A real
// structure walk is performed by a couple of static loads, which is
// what PC-indexed predictors (SP, GHB) and signature mechanisms
// (DBCP) rely on; the loop/block model alone would spread a pattern
// over arbitrarily many PCs.
const dataPCsPerPattern = 1

type slotKind uint8

const (
	slotALU slotKind = iota
	slotMem
	slotBranch
)

type instTemplate struct {
	pc      uint64
	dataPC  uint64 // stable static-instruction identity for mem slots
	class   trace.Class
	kind    slotKind
	pattern int // pattern index for mem slots
	isStore bool
	dep1    uint16
	dep2    uint16
}

type block struct {
	id    uint32
	insts []instTemplate
}

type loop struct {
	blocks []block
}

type phaseState struct {
	spec  PhaseSpec
	loops []loop
}

// Generator emits the instruction stream of one benchmark. It
// implements trace.Stream and never ends (callers bound it with
// trace.Limit).
//
// A Generator is a cursor over a shared, immutable program image (see
// image.go): everything built from (profile, seed) lives in prog, and
// the generator holds only the state that advances as instructions
// are emitted, in st, which State and SetState copy whole.
type Generator struct {
	prog *program
	st   GeneratorState
}

// NewGenerator returns a generator for a profile, positioned at the
// start of its stream. The same (profile, seed) pair always yields the
// identical stream. Generators of one (profile, seed) share a single
// read-only program image, built by the first of them (see image.go);
// each holds only its own cursor, so sharing changes no instruction.
func NewGenerator(prof Profile, seed uint64) *Generator {
	return lookupProgram(prof, seed).newCursor()
}

// Oracle returns the benchmark's memory-content oracle.
func (g *Generator) Oracle() *Oracle { return g.prog.oracle }

// Profile returns a copy of the generating profile; the image's own
// copy is shared with every other generator of the same program and
// must never be mutated.
func (g *Generator) Profile() Profile { return g.prog.prof.clone() }

// Next implements trace.Stream; the stream is infinite.
func (g *Generator) Next(inst *trace.Inst) bool {
	prog := g.prog
	ph := &prog.phases[g.st.PhaseIdx]
	lp := &ph.loops[g.st.CurLoop%len(ph.loops)]
	blk := &lp.blocks[g.st.BlockIdx%len(lp.blocks)]
	t := &blk.insts[g.st.InstIdx]

	inst.PC = t.pc
	inst.DataPC = t.dataPC
	inst.Class = t.class
	inst.BB = blk.id
	inst.Dep1 = t.dep1
	inst.Dep2 = t.dep2
	inst.Addr = 0
	inst.Mispredict = false

	switch t.kind {
	case slotMem:
		p := &prog.patterns[t.pattern]
		c := &g.st.Patterns[t.pattern]
		addr, ptrField := c.next(p)
		inst.Addr = addr
		switch {
		case p.spec.Kind == PatChase:
			// Chase accesses serialize on the previous pointer load
			// of the same chain of the structure.
			chain := c.CurChain
			if last := g.st.LastSeq[t.pattern][chain]; last > 0 {
				d := g.st.Seq - last
				if d > 65535 {
					d = 65535
				}
				inst.Dep1 = uint16(d)
			}
			if ptrField {
				g.st.LastSeq[t.pattern][chain] = g.st.Seq
			}
		case p.spec.Serial && t.class == trace.Load:
			// Serial patterns chain each load on the previous one.
			if last := g.st.LastSeq[t.pattern][0]; last > 0 {
				d := g.st.Seq - last
				if d > 65535 {
					d = 65535
				}
				inst.Dep1 = uint16(d)
			}
			g.st.LastSeq[t.pattern][0] = g.st.Seq
		}
	case slotBranch:
		inst.Mispredict = g.st.RNG.Bool(prog.prof.Mispredict)
	}

	// Advance cursors.
	g.st.Seq++
	g.st.InstIdx++
	if g.st.InstIdx >= len(blk.insts) {
		g.st.InstIdx = 0
		g.st.BlockIdx++
		if g.st.BlockIdx >= len(lp.blocks) {
			g.st.BlockIdx = 0
			g.st.LoopIters++
			// Stay in a loop for a while, then move to another loop of
			// the phase (models the call graph; drives I-cache
			// behaviour).
			if g.st.LoopIters >= 16 || g.st.RNG.Bool(0.05) {
				g.st.LoopIters = 0
				g.st.CurLoop = g.st.RNG.Intn(len(ph.loops))
			}
		}
	}
	g.st.InPhase++
	if g.st.InPhase >= ph.spec.Len {
		g.st.InPhase = 0
		g.st.PhaseIdx = (g.st.PhaseIdx + 1) % len(prog.phases)
		// loopIters resets with the other loop cursors: a residual
		// count would cut the first loop of the new phase short.
		g.st.BlockIdx, g.st.InstIdx, g.st.CurLoop, g.st.LoopIters = 0, 0, 0, 0
	}
	return true
}

// New builds a generator for a named benchmark.
func New(name string, seed uint64) (*Generator, error) {
	p, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return NewGenerator(p, seed), nil
}
