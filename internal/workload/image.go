package workload

import (
	"encoding/binary"
	"runtime"
	"sort"
	"sync"
	"weak"

	"microlib/internal/prng"
	"microlib/internal/trace"
)

// This file builds program images. Everything NewGenerator derives from
// (profile, seed) — pattern regions and visit tables, the value oracle,
// the loop/block code templates, the PRNG states left by the build —
// is fixed once built, so one image serves every generator of the same
// (profile, seed): a mechanism sweep that runs 14 mechanisms on one
// benchmark builds the program once, not 14 times. Generators only
// read the image; their cursors are their own.
//
// Images are held weakly. The table keeps an image only while some
// generator still uses it, and forgets its key once the image is
// collected, so sharing never extends an image's life: a campaign
// whose cells reuse an image back to back shares it, and one whose
// repeats are far apart rebuilds it rather than keeping every image it
// ever built resident.

// program is the immutable image of one (profile, seed) pair.
type program struct {
	// prof is a deep copy of the caller's profile: later mutation of
	// the caller's slices cannot reach a live image.
	prof     Profile
	oracle   *Oracle
	patterns []pattern
	phases   []phaseState
	// rng and start are the generator and per-pattern cursors the
	// build leaves behind: every new generator starts from them.
	rng   prng.Source
	start []patternCursor
	// words is the length of a generator's shared backing for its
	// chase cursors and lastSeq chains.
	words int
}

// images is the process-wide table of live program images, keyed by
// the profile's canonical JSON followed by the seed's eight bytes.
var images = struct {
	sync.Mutex
	m map[string]weak.Pointer[program]
}{m: map[string]weak.Pointer[program]{}}

// lookupProgram returns the live image of (prof, seed), building and
// registering it on a miss. A profile without a canonical form (one
// Validate rejects) is built privately, so NewGenerator's panics and
// behavior on such profiles are unchanged.
func lookupProgram(prof Profile, seed uint64) *program {
	key, ok := imageKey(prof, seed)
	if !ok {
		return buildProgram(prof, seed)
	}
	images.Lock()
	pr := images.m[string(key)].Value()
	images.Unlock()
	if pr != nil {
		return pr
	}
	// Build outside the lock so workers building different programs
	// do not serialize; two concurrent builds of one key keep the
	// first registered image and drop the other.
	pr = buildProgram(prof, seed)
	k := string(key)
	images.Lock()
	defer images.Unlock()
	if live := images.m[k].Value(); live != nil {
		return live
	}
	images.m[k] = weak.Make(pr)
	runtime.AddCleanup(pr, forgetImage, k)
	return pr
}

// imageKey is the table key of (prof, seed); ok is false for a profile
// without a canonical form.
func imageKey(prof Profile, seed uint64) (key []byte, ok bool) {
	data, err := prof.CanonicalJSON()
	if err != nil {
		return nil, false
	}
	return binary.LittleEndian.AppendUint64(data, seed), true
}

// forgetImage drops a collected image's key. A key re-registered by a
// later build holds a live image and is kept.
func forgetImage(k string) {
	images.Lock()
	if images.m[k].Value() == nil {
		delete(images.m, k)
	}
	images.Unlock()
}

// clone returns a deep copy of the profile.
func (p Profile) clone() Profile {
	p.Patterns = append([]PatternSpec(nil), p.Patterns...)
	for i := range p.Patterns {
		if f := p.Patterns[i].Fields; f != nil {
			p.Patterns[i].Fields = append([]uint64(nil), f...)
		}
	}
	p.Phases = append([]PhaseSpec(nil), p.Phases...)
	for i := range p.Phases {
		p.Phases[i].Weights = append([]float64(nil), p.Phases[i].Weights...)
	}
	return p
}

// buildProgram synthesizes the image of (prof, seed). The draw order
// from the build PRNG defines every benchmark's stream: do not reorder
// draws without bumping the runner fingerprint version.
func buildProgram(prof Profile, seed uint64) *program {
	if len(prof.Patterns) == 0 || len(prof.Phases) == 0 {
		panic("workload: profile needs patterns and phases: " + prof.Name)
	}
	for _, ph := range prof.Phases {
		if len(ph.Weights) != len(prof.Patterns) {
			panic("workload: phase weight vector length mismatch: " + prof.Name)
		}
	}
	prof = prof.clone()
	rng := prng.New(seed ^ prng.HashString(prof.Name))
	pr := &program{
		prof:   prof,
		oracle: newOracle(rng.Uint64()),
	}

	// Allocate pattern regions and register them with the oracle.
	nextBase := uint64(heapBase)
	for _, spec := range prof.Patterns {
		// Jitter region bases so distinct regions do not all alias
		// to L1 set 0.
		base := nextBase + (rng.Uint64n(32<<10) &^ 63)
		sz := spec.Size
		if sz == 0 {
			sz = 4 << 10
		}
		spec.Size = sz
		nextBase += (sz + (2 << 20)) &^ ((1 << 20) - 1)

		var (
			p   pattern
			own *prng.Source
			cur patternCursor
		)
		if spec.Kind == PatChase {
			if spec.NodeSize == 0 {
				spec.NodeSize = 64
			}
			nodes := sz / spec.NodeSize
			if nodes == 0 {
				nodes = 1
			}
			// Shuffled visit order; the oracle's pointer fields are
			// built to match, so the chain in memory IS the walk.
			order := shuffledOrder(nodes, rng)
			succ := make([]uint32, nodes)
			for i := range order {
				succ[order[i]] = order[(i+1)%len(order)]
			}
			fields := spec.Fields
			if len(fields) == 0 {
				fields = []uint64{spec.PtrOff}
			}
			chains := spec.Chains
			if chains < 1 {
				chains = 1
			}
			cur.nodeCur = make([]uint64, chains)
			for c := range cur.nodeCur {
				cur.nodeCur[c] = uint64(c) * nodes / uint64(chains)
			}
			p = pattern{spec: spec, base: base, order: order, fields: fields}
			own = rng.Split()
			pr.oracle.addRegion(oracleRegion{
				base: base, size: sz,
				nodeSize: spec.NodeSize, ptrOff: spec.PtrOff,
				succ: succ, nodes: nodes, decoys: spec.Decoys,
				fvProb: orDefault(spec.FVProb, prof.FVProb),
			})
		} else {
			p, own = newPattern(spec, base, rng)
			pr.oracle.addRegion(oracleRegion{
				base: base, size: sz,
				fvProb: orDefault(spec.FVProb, prof.FVProb),
			})
		}
		cur.rng = *own
		pr.patterns = append(pr.patterns, p)
		pr.start = append(pr.start, cur)
		pr.words += len(cur.nodeCur) + max(len(cur.nodeCur), 1)
	}

	// Build each phase's loops so the total text size approximates
	// CodeKB spread across the phases.
	slotCount := make([]int, len(pr.patterns))
	blockID := uint32(0)
	pcCursor := uint64(codeBase)
	for _, ps := range prof.Phases {
		st := phaseState{spec: ps}
		blockLen := prof.BlockLen
		if blockLen < 3 {
			blockLen = 5
		}
		codeBytes := prof.CodeKB * 1024 / len(prof.Phases)
		totalBlocks := codeBytes / (blockLen * 4)
		if totalBlocks < 4 {
			totalBlocks = 4
		}
		const blocksPerLoop = 8
		nLoops := totalBlocks / blocksPerLoop
		if nLoops < 1 {
			nLoops = 1
		}
		cw := cumulativeWeights(ps.Weights)
		for l := 0; l < nLoops; l++ {
			var lp loop
			for b := 0; b < blocksPerLoop; b++ {
				blk := pr.buildBlock(rng, slotCount, blockID, pcCursor, blockLen, cw)
				pcCursor += uint64(len(blk.insts)) * 4
				blockID++
				lp.blocks = append(lp.blocks, blk)
			}
			st.loops = append(st.loops, lp)
		}
		pr.phases = append(pr.phases, st)
	}
	pr.rng = *rng
	return pr
}

// newCursor returns a generator at the start of the program's stream.
// Its chase cursors and lastSeq chains share one backing array.
func (pr *program) newCursor() *Generator {
	g := &Generator{
		prog:     pr,
		rng:      pr.rng,
		patterns: append([]patternCursor(nil), pr.start...),
		lastSeq:  make([][]uint64, len(pr.start)),
	}
	words := make([]uint64, pr.words)
	for i := range g.patterns {
		c := &g.patterns[i]
		if n := len(c.nodeCur); n > 0 {
			c.nodeCur = words[:n:n]
			copy(c.nodeCur, pr.start[i].nodeCur)
			words = words[n:]
		}
		n := max(len(c.nodeCur), 1)
		g.lastSeq[i] = words[:n:n]
		words = words[n:]
	}
	return g
}

func orDefault(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}

func cumulativeWeights(weights []float64) []float64 {
	cw := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		sum += w
		cw[i] = sum
	}
	if sum == 0 {
		panic("workload: phase has all-zero weights")
	}
	for i := range cw {
		cw[i] /= sum
	}
	return cw
}

// buildBlock synthesizes one basic-block template. The final
// instruction is always the block-ending branch. slotCount counts the
// memory slots bound to each pattern so far in the build.
func (pr *program) buildBlock(rng *prng.Source, slotCount []int, id uint32, pcBase uint64, meanLen int, cw []float64) block {
	prof := &pr.prof
	n := rng.Geometric(float64(meanLen), meanLen*3)
	if n < 2 {
		n = 2
	}
	insts := make([]instTemplate, 0, n)
	memBudget := prof.LoadFrac + prof.StoreFrac
	for i := 0; i < n-1; i++ {
		t := instTemplate{pc: pcBase + uint64(len(insts))*4}
		r := rng.Float64()
		switch {
		case r < memBudget:
			t.kind = slotMem
			t.isStore = rng.Float64() < prof.StoreFrac/memBudget
			if t.isStore {
				t.class = trace.Store
			} else {
				t.class = trace.Load
			}
			t.pattern = pickWeighted(cw, rng.Float64())
			if pat := &pr.patterns[t.pattern]; pat.spec.Kind != PatHot {
				// Non-hot patterns present a stable, small set of
				// static-instruction identities to the memory system.
				t.dataPC = 0x00f0_0000 + (pat.base >> 14 << 5) +
					uint64(slotCount[t.pattern]%dataPCsPerPattern)*4
			}
			slotCount[t.pattern]++
		default:
			t.kind = slotALU
			t.class = pickALUClass(rng, prof.FP)
		}
		t.dep1 = uint16(rng.Geometric(prof.DepMean, 48))
		if rng.Bool(0.5) {
			t.dep2 = uint16(rng.Geometric(prof.DepMean, 48))
		}
		insts = append(insts, t)
	}
	insts = append(insts, instTemplate{
		pc:    pcBase + uint64(len(insts))*4,
		kind:  slotBranch,
		class: trace.Branch,
		dep1:  uint16(rng.Geometric(prof.DepMean, 16)),
	})
	return block{id: id, insts: insts}
}

func pickWeighted(cw []float64, u float64) int {
	i := sort.SearchFloat64s(cw, u)
	if i >= len(cw) {
		i = len(cw) - 1
	}
	return i
}

func pickALUClass(rng *prng.Source, fp bool) trace.Class {
	if fp {
		switch r := rng.Float64(); {
		case r < 0.45:
			return trace.FPALU
		case r < 0.65:
			return trace.FPMult
		case r < 0.67:
			return trace.FPDiv
		case r < 0.70:
			return trace.IntMult
		default:
			return trace.IntALU
		}
	}
	switch r := rng.Float64(); {
	case r < 0.04:
		return trace.IntMult
	case r < 0.045:
		return trace.IntDiv
	default:
		return trace.IntALU
	}
}
