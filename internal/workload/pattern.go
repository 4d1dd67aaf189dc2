package workload

import "microlib/internal/prng"

// PatternKind selects an access-pattern state machine.
type PatternKind int

// The pattern vocabulary. Each synthetic benchmark is a weighted mix
// of these, chosen to exercise the specific behaviours the surveyed
// mechanisms key off (strides for SP/GHB/TP, repeatable irregular
// tours for Markov/DBCP/TCP/TK, pointer chases for CDP, set conflicts
// for VC, value-dense regions for FVC).
const (
	// PatHot cycles a tiny working set (stack/locals); almost always
	// hits in L1.
	PatHot PatternKind = iota
	// PatSeq walks a region 8 bytes at a time (dense line reuse,
	// next-line misses that tagged prefetching covers).
	PatSeq
	// PatStride walks a region with a fixed stride; a PC-indexed
	// stride prefetcher locks onto it.
	PatStride
	// PatTile is a two-level nested walk (inner stride, outer jump):
	// a repeating non-constant delta sequence that delta-correlating
	// prefetchers (GHB) capture but simple stride detectors break on.
	PatTile
	// PatChase follows a linked structure: the next node address is
	// stored in memory at ptrOff inside each node, visible to
	// content-directed prefetching iff ptrOff lies within the
	// fetched line.
	PatChase
	// PatTour visits a fixed pseudo-random sequence of lines over and
	// over: irregular (defeats strides) but repeatable (miss-address
	// correlation — Markov, DBCP, TK — learns it).
	PatTour
	// PatRand touches uniformly random lines in a large region:
	// irreducible misses.
	PatRand
	// PatConflict ping-pongs between lines that map to the same set
	// of the direct-mapped L1: pure conflict misses a victim cache
	// absorbs.
	PatConflict
)

// PatternSpec parameterizes one pattern instance in a profile. The
// JSON encoding names the kind ("hot", "stride", "chase", ...); see
// codec.go.
type PatternSpec struct {
	// Kind selects the state machine; how often the pattern is used
	// comes from the per-phase weight vectors, not from the pattern.
	Kind   PatternKind `json:"kind"`
	Size   uint64      `json:"size,omitempty"`   // region size in bytes
	Stride uint64      `json:"stride,omitempty"` // PatStride / PatTile inner stride
	// Tile geometry: inner steps before an outer jump of Jump bytes.
	InnerSteps int    `json:"inner_steps,omitempty"`
	Jump       uint64 `json:"jump,omitempty"`
	// Chase geometry.
	NodeSize uint64 `json:"node_size,omitempty"` // bytes per node
	PtrOff   uint64 `json:"ptr_off,omitempty"`   // offset of the true next pointer inside a node
	Decoys   int    `json:"decoys,omitempty"`    // pointer-looking fields per node that mislead CDP
	// Fields are the node offsets touched per visit, in order; the
	// default is just PtrOff. ammp-style structures access data at
	// +0 before reaching the pointer 88 bytes down (outside the
	// first fetched line).
	Fields []uint64 `json:"fields,omitempty"`
	// Chains is the number of independent traversals interleaved
	// over the structure (memory-level parallelism of the chase);
	// default 1.
	Chains int `json:"chains,omitempty"`
	// Serial marks the pattern's accesses as address-dependent on
	// the previous access of the same pattern (hash-chain walks,
	// index chasing): the load's latency is then on the critical
	// path, which is what makes L1-level mechanisms matter.
	Serial bool `json:"serial,omitempty"`
	// Tour geometry.
	TourLines int `json:"tour_lines,omitempty"`
	// Value locality: probability a data word holds a frequent value.
	FVProb float64 `json:"fv_prob,omitempty"`
}

// pattern is the static part of one PatternSpec instance: its region
// and the visit tables built from the seed. It lives in the shared
// program image and is never written after the build.
type pattern struct {
	spec   PatternSpec
	base   uint64
	fields []uint64 // chase: node offsets touched per visit
	// order is the shuffled node-visit order of a chase; successive
	// deltas are irregular, so stride/delta prefetchers cannot
	// predict the walk — only content (CDP) or repetition (Markov,
	// DBCP) can.
	order []uint32
	tour  []uint64
	hotWS []uint64
}

// patternCursor is the run-time state of one pattern: what advances as
// its addresses are emitted, one per generator.
type patternCursor struct {
	rng prng.Source

	pos   uint64 // generic cursor
	inner int    // tile inner step
	field int    // chase field cursor
	// chase state: one step cursor per independent chain, indexing
	// the shuffled visit order.
	nodeCur  []uint64
	chainIdx int
	curChain int // chain of the most recently emitted access
}

// shuffledOrder returns a Fisher-Yates shuffle of [0, n).
func shuffledOrder(n uint64, rng *prng.Source) []uint32 {
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	for i := int(n) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// newPattern builds the static tables of a non-chase pattern (chases
// are built with their oracle region in buildProgram) and returns them
// with the pattern's private PRNG, split from the build stream.
func newPattern(spec PatternSpec, base uint64, rng *prng.Source) (pattern, *prng.Source) {
	p := pattern{spec: spec, base: base}
	own := rng.Split()
	switch spec.Kind {
	case PatTour:
		n := spec.TourLines
		if n <= 0 {
			n = 256
		}
		lines := spec.Size / lineBytes
		if lines == 0 {
			lines = 1
		}
		if uint64(n) > lines {
			n = int(lines)
		}
		// Visit a shuffled subset of the region's lines: irregular
		// (unpredictable by stride/delta) but identical every pass
		// (learnable by miss-address correlation).
		ord := shuffledOrder(lines, own)
		p.tour = make([]uint64, n)
		for i := range p.tour {
			p.tour[i] = base + uint64(ord[i])*lineBytes
		}
	case PatHot:
		n := int(spec.Size / 8)
		if n <= 0 {
			n = 64
		}
		if n > 512 {
			n = 512
		}
		p.hotWS = make([]uint64, n)
		for i := range p.hotWS {
			p.hotWS[i] = base + uint64(i)*8
		}
	}
	return p, own
}

// lineBytes is the L1 line size used for pattern geometry.
const lineBytes = 32

// next returns the next effective address for this pattern, and, for
// chases, whether the access reads the true next-node pointer (the
// access later accesses of the structure serialize on).
func (c *patternCursor) next(p *pattern) (addr uint64, ptrField bool) {
	s := &p.spec
	switch s.Kind {
	case PatHot:
		return p.hotWS[c.rng.Intn(len(p.hotWS))], false
	case PatSeq:
		a := p.base + c.pos
		c.pos += 8
		if c.pos >= s.Size {
			c.pos = 0
		}
		return a, false
	case PatStride:
		a := p.base + c.pos
		c.pos += s.Stride
		if c.pos >= s.Size {
			c.pos = 0
		}
		return a, false
	case PatTile:
		a := p.base + c.pos
		c.inner++
		if c.inner >= s.InnerSteps {
			c.inner = 0
			c.pos += s.Jump
		} else {
			c.pos += s.Stride
		}
		if c.pos >= s.Size {
			c.pos = 0
		}
		return a, false
	case PatChase:
		steps := uint64(len(p.order))
		off := p.fields[c.field]
		c.curChain = c.chainIdx
		cur := &c.nodeCur[c.chainIdx]
		addr := p.base + uint64(p.order[*cur])*s.NodeSize + off
		isPtr := off == s.PtrOff
		c.field++
		if c.field >= len(p.fields) {
			c.field = 0
			*cur++
			if *cur >= steps {
				*cur = 0
			}
			c.chainIdx = (c.chainIdx + 1) % len(c.nodeCur)
		}
		return addr, isPtr
	case PatTour:
		a := p.tour[c.pos]
		c.pos++
		if c.pos >= uint64(len(p.tour)) {
			c.pos = 0
		}
		return a, false
	case PatRand:
		lines := s.Size / lineBytes
		return p.base + c.rng.Uint64n(lines)*lineBytes, false
	case PatConflict:
		// Lines spaced exactly one L1-cache-size apart share a set in
		// the direct-mapped L1.
		const l1Size = 32 << 10
		k := s.Size / l1Size
		if k < 2 {
			k = 2
		}
		a := p.base + (c.pos%k)*l1Size
		c.pos++
		return a, false
	}
	return p.base, false
}
