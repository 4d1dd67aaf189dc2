package cpu

import (
	"fmt"
	"slices"

	"microlib/internal/sim"
	"microlib/internal/statecopy"
	"microlib/internal/trace"
)

// This file serializes the host cores' mutable state for warm-state
// checkpointing. Configuration and wiring (engine, hierarchy, stream)
// are reproduced by reconstruction; the trace/workload cursor is the
// runner's responsibility. In-flight load requests are pooled nodes
// referenced from cache MSHRs and calendar events; they serialize
// through the Load{Resolver,Restorer} operand domain.

// ROBEntryState is one reorder-buffer slot.
type ROBEntryState struct {
	Class      trace.Class
	PC         uint64
	Addr       uint64
	IsStore    bool
	Mispredict bool
	State      uint8
	Pending    int
	Waiters    []uint64 // absolute sequence numbers of consumers
}

// OoOState is the full mutable state of the out-of-order core: the
// core keeps it in this form while it runs.
type OoOState struct {
	Win  []ROBEntryState
	Head uint64 // oldest in-flight sequence number
	Tail uint64 // next sequence number to allocate

	ReadyQ  []uint64
	LSQUsed int

	// Front end.
	FetchDone     bool   // stream exhausted or budget reached
	FetchBlocked  bool   // waiting on an I-cache fill
	FetchRetry    bool   // fetch bailed on a next-cycle-retriable resource
	FetchResumeAt uint64 // earliest fetch cycle after redirect
	HaltOnBranch  bool   // a mispredicted branch is unresolved
	HaltBranchSeq uint64
	CurFetchLine  uint64
	Staged        trace.Inst // one-instruction fetch stage
	HasStaged     bool
	Fetched       uint64

	// Per-cycle functional-unit usage.
	FuCycle                        uint64
	IntALU, IntMD, FPALU, FPMD, LS int

	Res Result
}

// StateInto captures the core's mutable state into *st, reusing its
// window and ready-queue slices where their capacity suffices
// (in-flight load nodes are captured separately, by the LoadResolver,
// as they surface from the calendar and MSHR snapshots).
func (o *OoO) StateInto(st *OoOState) { statecopy.CopyInto(st, o.st) }

// SetState overwrites the core's mutable state from a snapshot taken
// on an identically-configured core. Backing arrays (window waiter
// slices, the ready queue) are reused.
func (o *OoO) SetState(st OoOState) error {
	if len(st.Win) != len(o.st.Win) {
		return fmt.Errorf("cpu: snapshot window has %d slots, config needs %d", len(st.Win), len(o.st.Win))
	}
	statecopy.CopyInto(&o.st, st)
	return nil
}

// LoadState is the payload of one in-flight pooled load request.
type LoadState struct {
	Seq  uint64
	Addr uint64
	PC   uint64
}

// LoadResolver is the snapshot-side operand domain for the core's
// pooled load nodes: the first time a node surfaces (from an MSHR
// target or a calendar event) it is assigned a table index; the table
// travels in the machine snapshot.
type LoadResolver struct {
	o   *OoO
	idx map[*loadReq]uint64
	tab []LoadState
}

// NewLoadResolver returns an empty load-operand domain for the core,
// whose table reuses tab's backing array (nil for a fresh one). The
// resolver is the core's own, reset for each capture, so its index
// allocates only when more loads are in flight than at any capture
// before.
func (o *OoO) NewLoadResolver(tab []LoadState) *LoadResolver {
	r := &o.res
	if r.idx == nil {
		r.idx = map[*loadReq]uint64{}
	}
	clear(r.idx)
	r.o, r.tab = o, tab[:0]
	return r
}

// Ref resolves v if it is one of this core's load nodes.
func (r *LoadResolver) Ref(v any) (sim.OpRef, bool) {
	lr, ok := v.(*loadReq)
	if !ok || lr.o != r.o {
		return sim.OpRef{}, false
	}
	if i, seen := r.idx[lr]; seen {
		return sim.OpRef{Kind: "cpu.load", Idx: i}, true
	}
	i := uint64(len(r.tab))
	r.tab = append(r.tab, LoadState{Seq: lr.seq, Addr: lr.acc.Addr, PC: lr.acc.PC})
	r.idx[lr] = i
	return sim.OpRef{Kind: "cpu.load", Idx: i}, true
}

// Loads returns the accumulated node payload table.
func (r *LoadResolver) Loads() []LoadState { return r.tab }

// LoadRestorer is the restore-side domain: each referenced table index
// materializes one pooled node, shared by every reference to it.
type LoadRestorer struct {
	o     *OoO
	tab   []LoadState
	nodes []*loadReq
}

// NewLoadRestorer returns the restore-side domain over a captured
// load table. The restorer is the core's own, reset for each restore,
// so its node table allocates only when a snapshot holds more loads
// in flight than any restored before.
func (o *OoO) NewLoadRestorer(tab []LoadState) *LoadRestorer {
	r := &o.rest
	r.o, r.tab = o, tab
	r.nodes = slices.Grow(r.nodes[:0], len(tab))[:len(tab)]
	clear(r.nodes)
	return r
}

// Val materializes the load node for a cpu.load reference.
func (r *LoadRestorer) Val(ref sim.OpRef) (any, bool) {
	if ref.Kind != "cpu.load" || ref.Idx >= uint64(len(r.tab)) {
		return nil, false
	}
	if n := r.nodes[ref.Idx]; n != nil {
		return n, true
	}
	p := r.tab[ref.Idx]
	lr := r.o.getLoad(p.Seq)
	lr.acc.Addr, lr.acc.PC = p.Addr, p.PC
	r.nodes[ref.Idx] = lr
	return lr, true
}

// InOrderState is the full mutable state of the scalar core.
type InOrderState struct {
	Waiting   bool
	DoneAt    uint64
	LoadAddr  uint64
	LoadPC    uint64
	StoreAddr uint64
	StorePC   uint64
	Res       Result
}

// State captures the scalar core's mutable state.
func (c *InOrder) State() InOrderState {
	return InOrderState{
		Waiting: c.waiting, DoneAt: c.doneAt,
		LoadAddr: c.loadAcc.Addr, LoadPC: c.loadAcc.PC,
		StoreAddr: c.storeAcc.Addr, StorePC: c.storeAcc.PC,
		Res: c.res,
	}
}

// SetState overwrites the scalar core's mutable state.
func (c *InOrder) SetState(st InOrderState) {
	c.waiting = st.Waiting
	c.doneAt = st.DoneAt
	c.loadAcc.Addr, c.loadAcc.PC = st.LoadAddr, st.LoadPC
	c.storeAcc.Addr, c.storeAcc.PC = st.StoreAddr, st.StorePC
	c.res = st.Res
}

func init() {
	sim.RegisterFunc("cpu.oooComplete", oooComplete)
}
