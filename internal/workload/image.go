package workload

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
// ever built resident. Lookups that miss while the same program is
// being built wait for that build, so concurrent workers never build
// one program twice at once.

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
	start []PatternState
	// words is the length of a generator's shared backing for its
	// chase cursors and lastSeq chains.
	words int
}

// imageKey files an image in the table under its profile's name and
// its seed. Distinct profiles may share a name (an inline profile
// named like a built-in, a sweep of variants); the lookup tells them
// apart by comparing whole profiles, which costs no allocation, where
// rendering a canonical form would cost one per pattern.
type imageKey struct {
	name string
	seed uint64
}

// images is the process-wide table of live program images, and of the
// builds in flight.
var images = struct {
	sync.Mutex
	m        map[imageKey][]weak.Pointer[program]
	building map[imageKey][]*imageBuild
}{m: map[imageKey][]weak.Pointer[program]{}, building: map[imageKey][]*imageBuild{}}

// imageBuild is one program build in flight. Callers that want the
// same program wait on done and take pr, nil when the build panicked.
type imageBuild struct {
	prof Profile
	done chan struct{}
	pr   *program
}

// imagesBuilt counts the images lookupProgram has built.
var imagesBuilt atomic.Uint64

// ImagesBuilt returns how many program images the process has built
// for sharing: a campaign that reuses its programs well builds one per
// distinct (profile, seed) it runs.
func ImagesBuilt() uint64 { return imagesBuilt.Load() }

// lookupProgram returns the live image of (prof, seed), building and
// registering it on a miss. A caller that misses while another builds
// the same program waits for that build instead of building it again.
// A profile Validate rejects is built privately, so NewGenerator's
// panics and behavior on such profiles are unchanged.
func lookupProgram(prof Profile, seed uint64) *program {
	k := imageKey{prof.Name, seed}
	images.Lock()
	if pr := liveImage(k, &prof); pr != nil {
		images.Unlock()
		return pr
	}
	b := buildOf(k, &prof)
	if b == nil {
		if prof.Validate() != nil {
			images.Unlock()
			return buildProgram(prof, seed)
		}
		b = &imageBuild{prof: prof, done: make(chan struct{})}
		images.building[k] = append(images.building[k], b)
		images.Unlock()
		// Build outside the lock, so workers building different
		// programs do not serialize.
		defer finishBuild(k, b)
		b.pr = buildProgram(prof, seed)
		imagesBuilt.Add(1)
		return b.pr
	}
	images.Unlock()
	<-b.done
	if b.pr == nil { // the build panicked: reproduce the panic here
		return buildProgram(prof, seed)
	}
	return b.pr
}

// buildOf returns the build in flight of the program (k, prof), or
// nil. The caller holds the table's lock.
func buildOf(k imageKey, prof *Profile) *imageBuild {
	for _, b := range images.building[k] {
		if b.prof.sameAs(prof) {
			return b
		}
	}
	return nil
}

// finishBuild files a finished build's image in the table, drops the
// build and releases its waiters; after a panicked build it only
// releases them.
func finishBuild(k imageKey, b *imageBuild) {
	images.Lock()
	if b.pr != nil {
		images.m[k] = append(images.m[k], weak.Make(b.pr))
		runtime.AddCleanup(b.pr, forgetImages, k)
	}
	builds := slices.DeleteFunc(images.building[k], func(x *imageBuild) bool { return x == b })
	if len(builds) == 0 {
		delete(images.building, k)
	} else {
		images.building[k] = builds
	}
	images.Unlock()
	close(b.done)
}

// liveImage returns the live image filed under k whose profile equals
// prof, or nil. The caller holds the table's lock.
func liveImage(k imageKey, prof *Profile) *program {
	for _, wp := range images.m[k] {
		if pr := wp.Value(); pr != nil && pr.prof.sameAs(prof) {
			return pr
		}
	}
	return nil
}

// forgetImages drops k's collected images, and k once none is left.
func forgetImages(k imageKey) {
	images.Lock()
	live := images.m[k][:0]
	for _, wp := range images.m[k] {
		if wp.Value() != nil {
			live = append(live, wp)
		}
	}
	if len(live) == 0 {
		delete(images.m, k)
	} else {
		images.m[k] = live
	}
	images.Unlock()
}

// sameAs reports whether p and q describe the same program: every
// field equal, floats bit for bit, so two profiles only share an image
// when buildProgram could not tell them apart.
func (p *Profile) sameAs(q *Profile) bool {
	return p.Name == q.Name && p.FP == q.FP &&
		sameFloat(p.LoadFrac, q.LoadFrac) && sameFloat(p.StoreFrac, q.StoreFrac) &&
		sameFloat(p.BranchFrac, q.BranchFrac) && sameFloat(p.Mispredict, q.Mispredict) &&
		p.CodeKB == q.CodeKB && p.BlockLen == q.BlockLen &&
		sameFloat(p.DepMean, q.DepMean) && sameFloat(p.FVProb, q.FVProb) &&
		slices.EqualFunc(p.Patterns, q.Patterns, func(a, b PatternSpec) bool {
			return a.Kind == b.Kind && a.Size == b.Size && a.Stride == b.Stride &&
				a.InnerSteps == b.InnerSteps && a.Jump == b.Jump &&
				a.NodeSize == b.NodeSize && a.PtrOff == b.PtrOff && a.Decoys == b.Decoys &&
				slices.Equal(a.Fields, b.Fields) && a.Chains == b.Chains && a.Serial == b.Serial &&
				a.TourLines == b.TourLines && sameFloat(a.FVProb, b.FVProb)
		}) &&
		slices.EqualFunc(p.Phases, q.Phases, func(a, b PhaseSpec) bool {
			return a.Len == b.Len && slices.EqualFunc(a.Weights, b.Weights, sameFloat)
		})
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

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
			cur PatternState
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
			cur.NodeCur = make([]uint64, chains)
			for c := range cur.NodeCur {
				cur.NodeCur[c] = uint64(c) * nodes / uint64(chains)
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
		cur.RNG = *own
		pr.patterns = append(pr.patterns, p)
		pr.start = append(pr.start, cur)
		pr.words += len(cur.NodeCur) + max(len(cur.NodeCur), 1)
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
	g := &Generator{prog: pr, st: GeneratorState{
		RNG:      pr.rng,
		Patterns: append([]PatternState(nil), pr.start...),
		LastSeq:  make([][]uint64, len(pr.start)),
	}}
	words := make([]uint64, pr.words)
	for i := range g.st.Patterns {
		c := &g.st.Patterns[i]
		if n := len(c.NodeCur); n > 0 {
			c.NodeCur = words[:n:n]
			copy(c.NodeCur, pr.start[i].NodeCur)
			words = words[n:]
		}
		n := max(len(c.NodeCur), 1)
		g.st.LastSeq[i] = words[:n:n]
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
