package hier

import (
	"fmt"
	"slices"

	"microlib/internal/bus"
	"microlib/internal/cache"
	"microlib/internal/mem"
	"microlib/internal/sim"
)

// This file serializes the hierarchy's mutable state for warm-state
// checkpointing. Beyond the component states (caches, buses, memory),
// the hierarchy owns the pooled request nodes that ride the calendar
// as event operands and sit in MSHRs and the controller queue; the
// Snapshotter assigns each live node a table index lazily, the first
// time it surfaces from a component snapshot, and the Restorer
// materializes exactly those nodes from the pools on the way back.

// L1FetchState is the payload of one in-flight L1 miss node.
type L1FetchState struct {
	Which int // 0 = L1D backend, 1 = L1I backend
	Sink  sim.OpRef
	Addr  uint64
	PC    uint64
}

// MemFetchState is the payload of one in-flight L2 miss node.
type MemFetchState struct {
	Sink     sim.OpRef
	Addr     uint64
	Size     uint32
	Prefetch bool
}

// MemWBState is the payload of one in-flight write-back node.
type MemWBState struct {
	Addr uint64
	Size uint32
}

// ConstFetchState is the payload of one in-flight constant-latency
// fetch node.
type ConstFetchState struct {
	Sink     sim.OpRef
	Addr     uint64
	Prefetch bool
}

// State is the full mutable state of a Hierarchy. Exactly one of
// ConstMem and SDRAM is set, matching the configured memory kind. The
// node tables are indexed by the OpRef Idx values that the component
// states and the engine snapshot reference.
type State struct {
	L1D, L1I, L2 cache.State
	L1Bus, FSB   bus.State
	ConstMem     *mem.Stats
	SDRAM        *mem.SDRAMState
	L1Fetches    []L1FetchState
	MemFetches   []MemFetchState
	MemWBs       []MemWBState
	ConstFetches []ConstFetchState
}

// Snapshotter captures a hierarchy's state, acting as the operand-
// resolution domain for its own components and pooled nodes. Unknown
// operands (core-owned nodes, mechanisms) chain to next.
type Snapshotter struct {
	h    *Hierarchy
	st   *State
	refs map[any]sim.OpRef
	next func(any) (sim.OpRef, bool)
}

// NewSnapshotter returns a snapshotter filling st; next handles
// operands outside the hierarchy (may be nil). Capture overwrites all
// of st and reuses its slices and memory state where their capacity
// suffices, so st may hold an earlier capture to recycle.
//
// The snapshotter is the hierarchy's own, reset for each capture, so
// its operand index allocates only when more nodes are in flight than
// at any capture before; the previous one must be done.
func (h *Hierarchy) NewSnapshotter(st *State, next func(any) (sim.OpRef, bool)) *Snapshotter {
	st.L1Fetches = st.L1Fetches[:0]
	st.MemFetches = st.MemFetches[:0]
	st.MemWBs = st.MemWBs[:0]
	st.ConstFetches = st.ConstFetches[:0]
	s := &h.snap
	if s.refs == nil {
		s.refs = map[any]sim.OpRef{}
	}
	clear(s.refs)
	s.h, s.st, s.next = h, st, next
	return s
}

// Ref resolves an operand to its serializable reference.
func (s *Snapshotter) Ref(v any) (sim.OpRef, bool) {
	h := s.h
	switch {
	case v == any(h.L1D):
		return sim.OpRef{Kind: "hier.cache", Idx: 0}, true
	case v == any(h.L1I):
		return sim.OpRef{Kind: "hier.cache", Idx: 1}, true
	case v == any(h.L2):
		return sim.OpRef{Kind: "hier.cache", Idx: 2}, true
	case v == any(h.Mem):
		return sim.OpRef{Kind: "hier.mem"}, true
	case v == any(h.l1dBack):
		return sim.OpRef{Kind: "hier.l1be", Idx: 0}, true
	case v == any(h.l1iBack):
		return sim.OpRef{Kind: "hier.l1be", Idx: 1}, true
	}
	if r, ok := s.refs[v]; ok {
		return r, true
	}
	switch n := v.(type) {
	case *l1Fetch:
		which := 0
		if n.b == h.l1iBack {
			which = 1
		}
		sinkRef, ok := s.Ref(n.sink)
		if !ok {
			return sim.OpRef{}, false
		}
		r := sim.OpRef{Kind: "hier.l1f", Idx: uint64(len(s.st.L1Fetches))}
		s.st.L1Fetches = append(s.st.L1Fetches, L1FetchState{
			Which: which, Sink: sinkRef, Addr: n.acc.Addr, PC: n.acc.PC,
		})
		s.refs[v] = r
		return r, true
	case *memFetch:
		sinkRef, ok := s.Ref(n.sink)
		if !ok {
			return sim.OpRef{}, false
		}
		r := sim.OpRef{Kind: "hier.mf", Idx: uint64(len(s.st.MemFetches))}
		s.st.MemFetches = append(s.st.MemFetches, MemFetchState{
			Sink: sinkRef, Addr: n.req.Addr, Size: n.req.Size, Prefetch: n.req.Prefetch,
		})
		s.refs[v] = r
		return r, true
	case *memWB:
		r := sim.OpRef{Kind: "hier.mwb", Idx: uint64(len(s.st.MemWBs))}
		s.st.MemWBs = append(s.st.MemWBs, MemWBState{Addr: n.req.Addr, Size: n.req.Size})
		s.refs[v] = r
		return r, true
	case *constFetch:
		sinkRef, ok := s.Ref(n.sink)
		if !ok {
			return sim.OpRef{}, false
		}
		r := sim.OpRef{Kind: "hier.cf", Idx: uint64(len(s.st.ConstFetches))}
		s.st.ConstFetches = append(s.st.ConstFetches, ConstFetchState{
			Sink: sinkRef, Addr: n.req.Addr, Prefetch: n.req.Prefetch,
		})
		s.refs[v] = r
		return r, true
	}
	if s.next != nil {
		return s.next(v)
	}
	return sim.OpRef{}, false
}

// Capture fills the component states (caches, buses, memory),
// populating the node tables as their in-flight references surface.
func (s *Snapshotter) Capture() error {
	if err := s.h.L1D.StateInto(&s.st.L1D, s.Ref); err != nil {
		return err
	}
	if err := s.h.L1I.StateInto(&s.st.L1I, s.Ref); err != nil {
		return err
	}
	if err := s.h.L2.StateInto(&s.st.L2, s.Ref); err != nil {
		return err
	}
	s.st.L1Bus = s.h.L1Bus.State()
	s.st.FSB = s.h.FSB.State()
	switch m := s.h.Mem.(type) {
	case *mem.ConstLatency:
		s.st.SDRAM = nil
		if s.st.ConstMem == nil {
			s.st.ConstMem = new(mem.Stats)
		}
		*s.st.ConstMem = m.State()
	case *mem.SDRAM:
		s.st.ConstMem = nil
		if s.st.SDRAM == nil {
			s.st.SDRAM = new(mem.SDRAMState)
		}
		if err := m.StateInto(s.st.SDRAM, s.Ref); err != nil {
			return err
		}
	default:
		return fmt.Errorf("hier: memory model %T is not snapshottable", s.h.Mem)
	}
	return nil
}

// Restorer rebuilds a hierarchy's state from a snapshot, materializing
// pooled nodes on first reference. Unknown reference kinds chain to
// next.
type Restorer struct {
	h    *Hierarchy
	st   *State
	l1f  []*l1Fetch
	mf   []*memFetch
	mwb  []*memWB
	cf   []*constFetch
	next func(sim.OpRef) (any, bool)
}

// NewRestorer returns a restorer over st; next handles reference kinds
// outside the hierarchy (may be nil). The restorer is the hierarchy's
// own, reset for each restore, so its node tables allocate only when a
// snapshot holds more in-flight nodes than any restored before; the
// previous one must be done.
func (h *Hierarchy) NewRestorer(st *State, next func(sim.OpRef) (any, bool)) *Restorer {
	r := &h.rest
	r.h, r.st, r.next = h, st, next
	r.l1f = emptyNodes(r.l1f, len(st.L1Fetches))
	r.mf = emptyNodes(r.mf, len(st.MemFetches))
	r.mwb = emptyNodes(r.mwb, len(st.MemWBs))
	r.cf = emptyNodes(r.cf, len(st.ConstFetches))
	return r
}

// emptyNodes returns n nil node slots in s's backing array.
func emptyNodes[T any](s []*T, n int) []*T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Val resolves a serialized reference back to a live value.
func (r *Restorer) Val(ref sim.OpRef) (any, bool) {
	h := r.h
	switch ref.Kind {
	case "hier.cache":
		switch ref.Idx {
		case 0:
			return h.L1D, true
		case 1:
			return h.L1I, true
		case 2:
			return h.L2, true
		}
		return nil, false
	case "hier.mem":
		return h.Mem, true
	case "hier.l1be":
		if ref.Idx == 0 {
			return h.l1dBack, true
		}
		return h.l1iBack, true
	case "hier.l1f":
		if ref.Idx >= uint64(len(r.l1f)) {
			return nil, false
		}
		if n := r.l1f[ref.Idx]; n != nil {
			return n, true
		}
		p := r.st.L1Fetches[ref.Idx]
		b := h.l1dBack
		if p.Which == 1 {
			b = h.l1iBack
		}
		f := b.getFetch()
		sv, ok := r.Val(p.Sink)
		if !ok {
			return nil, false
		}
		sink, ok := sv.(cache.FillSink)
		if !ok {
			return nil, false
		}
		f.sink = sink
		f.acc.Addr, f.acc.PC = p.Addr, p.PC
		r.l1f[ref.Idx] = f
		return f, true
	case "hier.mf":
		if ref.Idx >= uint64(len(r.mf)) || h.memBack == nil {
			return nil, false
		}
		if n := r.mf[ref.Idx]; n != nil {
			return n, true
		}
		p := r.st.MemFetches[ref.Idx]
		f := h.memBack.getFetch()
		sv, ok := r.Val(p.Sink)
		if !ok {
			return nil, false
		}
		sink, ok := sv.(cache.FillSink)
		if !ok {
			return nil, false
		}
		f.sink = sink
		f.req.Addr, f.req.Size, f.req.Prefetch = p.Addr, p.Size, p.Prefetch
		r.mf[ref.Idx] = f
		return f, true
	case "hier.mwb":
		if ref.Idx >= uint64(len(r.mwb)) || h.memBack == nil {
			return nil, false
		}
		if n := r.mwb[ref.Idx]; n != nil {
			return n, true
		}
		p := r.st.MemWBs[ref.Idx]
		w := h.memBack.getWB()
		w.req.Addr, w.req.Size = p.Addr, p.Size
		r.mwb[ref.Idx] = w
		return w, true
	case "hier.cf":
		if ref.Idx >= uint64(len(r.cf)) || h.constBack == nil {
			return nil, false
		}
		if n := r.cf[ref.Idx]; n != nil {
			return n, true
		}
		p := r.st.ConstFetches[ref.Idx]
		f := h.constBack.getFetch()
		sv, ok := r.Val(p.Sink)
		if !ok {
			return nil, false
		}
		sink, ok := sv.(cache.FillSink)
		if !ok {
			return nil, false
		}
		f.sink = sink
		f.req.Addr, f.req.Prefetch = p.Addr, p.Prefetch
		r.cf[ref.Idx] = f
		return f, true
	}
	if r.next != nil {
		return r.next(ref)
	}
	return nil, false
}

// Apply overwrites the hierarchy's component states from the snapshot.
func (r *Restorer) Apply() error {
	h, st := r.h, r.st
	h.L1Bus.SetState(st.L1Bus)
	h.FSB.SetState(st.FSB)
	if err := h.L1D.SetState(st.L1D, r.Val); err != nil {
		return err
	}
	if err := h.L1I.SetState(st.L1I, r.Val); err != nil {
		return err
	}
	if err := h.L2.SetState(st.L2, r.Val); err != nil {
		return err
	}
	switch m := h.Mem.(type) {
	case *mem.ConstLatency:
		if st.ConstMem == nil {
			return fmt.Errorf("hier: snapshot has no constant-memory state")
		}
		m.SetState(*st.ConstMem)
	case *mem.SDRAM:
		if st.SDRAM == nil {
			return fmt.Errorf("hier: snapshot has no SDRAM state")
		}
		if err := m.SetState(*st.SDRAM, r.Val); err != nil {
			return err
		}
	default:
		return fmt.Errorf("hier: memory model %T is not restorable", h.Mem)
	}
	return nil
}

func init() {
	sim.RegisterFunc("hier.l1FetchSubmit", l1FetchSubmit)
	sim.RegisterFunc("hier.l1FetchDeliver", l1FetchDeliver)
	sim.RegisterFunc("hier.l1SubmitWB", l1SubmitWB)
	sim.RegisterFunc("hier.memRetryWB", memRetryWB)
}
