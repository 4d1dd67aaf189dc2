package cpu

import (
	"microlib/internal/cache"
	"microlib/internal/hier"
	"microlib/internal/sim"
	"microlib/internal/trace"
)

// InOrder is a simple scalar, blocking-load host core. It exists to
// demonstrate the MicroLib interoperability claim: the same cache
// mechanism modules plug unchanged into a completely different
// processor model (the paper's wrapper story), and rankings can be
// compared across hosts (an ablation bench does exactly that).
type InOrder struct {
	eng    *sim.Engine
	h      *hier.Hierarchy
	stream trace.Stream

	mispredictPenalty uint64

	warmInsts uint64
	onWarm    func(cycles uint64)

	// loadAcc/storeAcc are reused across every access, with loadAcc's
	// Done callback bound once at construction: the blocking core has
	// at most one load in flight, so per-instruction Access structs
	// (and the closure each Done would capture) are pure garbage.
	loadAcc  cache.Access
	storeAcc cache.Access
	waiting  bool
	doneAt   uint64

	// instScratch is the reused Run-loop instruction buffer (a local
	// would escape through the stream interface call and cost one
	// heap allocation per Run invocation).
	instScratch trace.Inst

	res Result
}

// submit retries a refused L1D access until it is accepted, advancing
// the clock between attempts. The cache's structured refusal says
// exactly when the next attempt can succeed — a port frees next
// cycle, a pipeline stall lifts at RetryAt, a full MSHR frees only
// when a fill event lands — so the core jumps straight there instead
// of probing every cycle. Returns the cycle the access was accepted.
//
//ml:hotpath
func (c *InOrder) submit(a *cache.Access, cycle uint64) uint64 {
	for {
		r := c.h.L1D.Access(a)
		if r.Accepted() {
			return cycle
		}
		c.res.noteRetry(r.Reason)
		cycle = c.eng.RetryTarget(cycle, r.RetryAt)
		c.eng.AdvanceTo(cycle)
	}
}

// AccessDone implements cache.DoneSink: the core is loadAcc's
// pre-bound completion sink.
func (c *InOrder) AccessDone(now uint64, hit bool) {
	c.waiting = false
	c.doneAt = now
}

// SetWarmup mirrors OoO.SetWarmup for the scalar core.
func (c *InOrder) SetWarmup(insts uint64, fn func(cycles uint64)) {
	c.warmInsts = insts
	c.onWarm = fn
}

// Committed returns the number of instructions retired so far; the
// telemetry sampler reads it mid-run.
func (c *InOrder) Committed() uint64 { return c.res.Insts }

// NewInOrder builds the scalar core.
func NewInOrder(eng *sim.Engine, h *hier.Hierarchy, stream trace.Stream) *InOrder {
	c := &InOrder{eng: eng, h: h, stream: stream, mispredictPenalty: 6}
	c.loadAcc.Done = c
	c.storeAcc.Write = true
	return c
}

// Run simulates maxInsts instructions and returns the result.
//
//ml:hotpath
func (c *InOrder) Run(maxInsts uint64) Result {
	inst := &c.instScratch
	cycle := c.eng.Now()
	for c.res.Insts < maxInsts && c.stream.Next(inst) {
		c.eng.AdvanceTo(cycle)
		switch inst.Class {
		case trace.Load:
			c.waiting = true
			c.doneAt = 0
			c.loadAcc.Addr, c.loadAcc.PC = inst.Addr, inst.MemPC()
			cycle = c.submit(&c.loadAcc, cycle)
			// Blocking load: wind simulated time forward until the
			// data is back. Nothing can change between calendar
			// events while the scalar core blocks, so jump the clock
			// from event to event instead of stepping every cycle.
			for c.waiting {
				if t, ok := c.eng.NextEventAt(); ok && t > cycle {
					cycle = t
				} else {
					cycle++
				}
				c.eng.AdvanceTo(cycle)
			}
			if c.doneAt > cycle {
				cycle = c.doneAt
			}
			c.res.Loads++
		case trace.Store:
			c.storeAcc.Addr, c.storeAcc.PC = inst.Addr, inst.MemPC()
			cycle = c.submit(&c.storeAcc, cycle)
			cycle++
			c.res.Stores++
		case trace.Branch:
			cycle += inst.Class.Latency()
			if inst.Mispredict {
				cycle += c.mispredictPenalty
				c.res.Mispredicts++
			}
		default:
			cycle += inst.Class.Latency()
		}
		c.res.Insts++
		if c.onWarm != nil && c.res.Insts == c.warmInsts {
			c.onWarm(cycle)
			c.onWarm = nil
		}
	}
	c.eng.AdvanceTo(cycle)
	c.res.Cycles = cycle
	if c.res.Cycles == 0 {
		c.res.Cycles = 1
	}
	return c.res
}
