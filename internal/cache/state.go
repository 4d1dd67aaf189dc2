package cache

import (
	"fmt"
	"slices"

	"microlib/internal/sim"
	"microlib/internal/statecopy"
)

// This file serializes a cache's mutable state for warm-state
// checkpointing. Configuration (geometry, latencies, policy flags,
// observer wiring) is reproduced by reconstruction; State carries only
// what mutates during simulation. In-flight callbacks — MSHR targets,
// redirect sinks — are identifiable objects, captured as sim.OpRef
// through the caller's resolver.

// LineState is one cache line: the element type of the line array
// itself, so the array snapshots and restores as a block.
type LineState struct {
	Tag        uint64 // the full line number (lineAddr >> lineShift)
	Valid      bool
	Dirty      bool
	Prefetched bool
	LastUse    uint64
}

// MSHRState is one miss-status holding register in serializable form.
type MSHRState struct {
	Valid     bool
	LineAddr  uint64
	FirstAddr uint64
	PC        uint64
	Reads     int
	FillDirty bool
	Prefetch  bool
	Issued    bool
	Redirect  sim.OpRef
	Targets   []sim.OpRef
}

// PrefetchReqState is one queued prefetch request.
type PrefetchReqState struct {
	LineAddr uint64
	Redirect sim.OpRef
}

// State is the full mutable state of a Cache. Lines is row-major over
// (set, way), exactly NumSets*Ways entries.
type State struct {
	Lines      []LineState
	UseTick    uint64
	StallUntil uint64
	PortCycle  uint64
	PortsUsed  int
	MSHRs      []MSHRState
	PQ         []PrefetchReqState
	PQRetryArm bool
	Stats      Stats
}

// StateInto captures the cache's mutable state into *st, reusing its
// line array, MSHR and prefetch-queue slices (and each MSHR's target
// slice) wherever their capacity suffices, so capturing again into the
// same destination allocates nothing. resolve maps in-flight callback
// sinks to serializable references; it must recognize every sink that
// can be parked in this cache's MSHRs or prefetch queue.
func (c *Cache) StateInto(st *State, resolve func(any) (sim.OpRef, bool)) error {
	st.UseTick = c.useTick
	st.StallUntil = c.stallUntil
	st.PortCycle = c.portCycle
	st.PortsUsed = c.portsUsed
	st.PQRetryArm = c.pqRetryArm
	st.Stats = c.stats
	statecopy.CopyInto(&st.Lines, c.lines)
	st.MSHRs = slices.Grow(st.MSHRs[:0], len(c.mshrs))[:len(c.mshrs)]
	for i := range c.mshrs {
		e := &c.mshrs[i]
		m := &st.MSHRs[i]
		*m = MSHRState{
			Valid: e.valid, LineAddr: e.lineAddr, FirstAddr: e.firstAddr,
			PC: e.pc, Reads: e.reads, FillDirty: e.fillDirty,
			Prefetch: e.prefetch, Issued: e.issued,
			Targets: m.Targets[:0],
		}
		if e.redirect != nil {
			r, ok := resolve(e.redirect)
			if !ok {
				return fmt.Errorf("cache %s: unresolvable MSHR redirect %T", c.cfg.Name, e.redirect)
			}
			m.Redirect = r
		}
		for _, t := range e.targets {
			r, ok := resolve(t)
			if !ok {
				return fmt.Errorf("cache %s: unresolvable MSHR target %T", c.cfg.Name, t)
			}
			m.Targets = append(m.Targets, r)
		}
	}
	st.PQ = st.PQ[:0]
	for i := c.pqHead; i < len(c.pq); i++ {
		p := PrefetchReqState{LineAddr: c.pq[i].lineAddr}
		if c.pq[i].redirect != nil {
			r, ok := resolve(c.pq[i].redirect)
			if !ok {
				return fmt.Errorf("cache %s: unresolvable prefetch redirect %T", c.cfg.Name, c.pq[i].redirect)
			}
			p.Redirect = r
		}
		st.PQ = append(st.PQ, p)
	}
	return nil
}

// SetState overwrites the cache's mutable state from a snapshot taken
// on an identically-configured cache, resolving callback references
// back to live sinks. Backing arrays (MSHR target slices, the prefetch
// queue) are reused, so steady-state restores do not allocate.
func (c *Cache) SetState(st State, resolve func(sim.OpRef) (any, bool)) error {
	if len(st.Lines) != len(c.lines) {
		return fmt.Errorf("cache %s: snapshot has %d lines, geometry needs %d", c.cfg.Name, len(st.Lines), len(c.lines))
	}
	statecopy.CopyInto(&c.lines, st.Lines)
	c.rebuildDirtyLRU()
	c.useTick = st.UseTick
	c.stallUntil = st.StallUntil
	c.portCycle = st.PortCycle
	c.portsUsed = st.PortsUsed
	c.pqRetryArm = st.PQRetryArm
	c.stats = st.Stats

	// The MSHR pool may have grown past its configured size under
	// InfiniteMSHR; match the snapshot's length, keeping recycled
	// entries (and their targets capacity) where possible.
	if len(st.MSHRs) < len(c.mshrs) {
		for i := len(st.MSHRs); i < len(c.mshrs); i++ {
			c.mshrs[i].clear()
		}
		c.mshrs = c.mshrs[:len(st.MSHRs)]
	}
	for len(c.mshrs) < len(st.MSHRs) {
		if !c.cfg.InfiniteMSHR {
			return fmt.Errorf("cache %s: snapshot has %d MSHRs, config allows %d", c.cfg.Name, len(st.MSHRs), len(c.mshrs))
		}
		c.mshrs = append(c.mshrs, mshrEntry{})
	}
	c.mshrsIn = 0
	for i := range st.MSHRs {
		m := &st.MSHRs[i]
		e := &c.mshrs[i]
		e.clear()
		e.valid = m.Valid
		e.lineAddr = m.LineAddr
		e.firstAddr = m.FirstAddr
		e.pc = m.PC
		e.reads = m.Reads
		e.fillDirty = m.FillDirty
		e.prefetch = m.Prefetch
		e.issued = m.Issued
		if !m.Redirect.IsZero() {
			v, ok := resolve(m.Redirect)
			if !ok {
				return fmt.Errorf("cache %s: unresolvable MSHR redirect ref %v", c.cfg.Name, m.Redirect)
			}
			rs, ok := v.(RedirectSink)
			if !ok {
				return fmt.Errorf("cache %s: ref %v is %T, not a RedirectSink", c.cfg.Name, m.Redirect, v)
			}
			e.redirect = rs
		}
		for _, tr := range m.Targets {
			v, ok := resolve(tr)
			if !ok {
				return fmt.Errorf("cache %s: unresolvable MSHR target ref %v", c.cfg.Name, tr)
			}
			ds, ok := v.(DoneSink)
			if !ok {
				return fmt.Errorf("cache %s: ref %v is %T, not a DoneSink", c.cfg.Name, tr, v)
			}
			e.targets = append(e.targets, ds)
		}
		if e.valid {
			c.mshrsIn++
		}
	}

	for i := range c.pq {
		c.pq[i] = prefetchReq{}
	}
	c.pq = c.pq[:0]
	c.pqHead = 0
	for i := range st.PQ {
		p := &st.PQ[i]
		req := prefetchReq{lineAddr: p.LineAddr}
		if !p.Redirect.IsZero() {
			v, ok := resolve(p.Redirect)
			if !ok {
				return fmt.Errorf("cache %s: unresolvable prefetch redirect ref %v", c.cfg.Name, p.Redirect)
			}
			rs, ok := v.(RedirectSink)
			if !ok {
				return fmt.Errorf("cache %s: ref %v is %T, not a RedirectSink", c.cfg.Name, p.Redirect, v)
			}
			req.redirect = rs
		}
		c.pq = append(c.pq, req)
	}
	return nil
}

func init() {
	sim.RegisterFunc("cache.retryIssueFetch", retryIssueFetch)
	sim.RegisterFunc("cache.retryWriteBack", retryWriteBack)
	sim.RegisterFunc("cache.callDoneHit", callDoneHit)
	sim.RegisterFunc("cache.firePrefetchRetry", firePrefetchRetry)
}
