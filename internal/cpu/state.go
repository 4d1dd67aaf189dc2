package cpu

import (
	"fmt"

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

// State captures the core's mutable state (in-flight load nodes are
// captured separately, by the LoadResolver, as they surface from the
// calendar and MSHR snapshots).
func (o *OoO) State() OoOState { return statecopy.Clone(o.st) }

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

// NewLoadResolver returns an empty load-operand domain for the core.
func (o *OoO) NewLoadResolver() *LoadResolver {
	return &LoadResolver{o: o, idx: map[*loadReq]uint64{}}
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
// load table.
func (o *OoO) NewLoadRestorer(tab []LoadState) *LoadRestorer {
	return &LoadRestorer{o: o, tab: tab, nodes: make([]*loadReq, len(tab))}
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
