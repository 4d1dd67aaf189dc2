package mem

import (
	"fmt"

	"microlib/internal/sim"
	"microlib/internal/statecopy"
)

// BankState is one SDRAM bank's mutable state.
type BankState struct {
	OpenRow   int64 // -1 when closed
	ReadyAt   uint64
	LastActAt uint64
	HasActed  bool
}

// QueuedReqState is one controller-queue entry. The queued *Req lives
// inside an owner node (a hier backend request, reachable through its
// Done sink via ReqHolder); Owner references that node, and the bank/
// row decomposition is recomputed from the restored request's address.
type QueuedReqState struct {
	Owner   sim.OpRef
	Arrival uint64
}

// SDRAMState is the full mutable state of the SDRAM model.
type SDRAMState struct {
	Banks         []BankState
	Queue         []QueuedReqState
	Stats         Stats
	DataBusFreeAt uint64
	LastActAt     uint64
	AnyActed      bool
	KickPlanned   bool
	Inflight      int
}

// StateInto captures the controller's mutable state into *st, reusing
// its bank and queue slices where their capacity suffices. Every
// queued request must carry a Done sink that resolve recognizes and
// whose owner implements ReqHolder (true for all hierarchy backends;
// bare test requests are not checkpointable).
func (s *SDRAM) StateInto(st *SDRAMState, resolve func(any) (sim.OpRef, bool)) error {
	st.Stats = s.stats
	st.DataBusFreeAt = s.dataBusFreeAt
	st.LastActAt = s.lastActAt
	st.AnyActed = s.anyActed
	st.KickPlanned = s.kickPlanned
	st.Inflight = s.inflight
	statecopy.CopyInto(&st.Banks, s.banks)
	st.Queue = st.Queue[:0]
	for i := range s.queue {
		q := &s.queue[i]
		if q.req.Done == nil {
			return fmt.Errorf("mem: queued request %#x has no owner sink", q.req.Addr)
		}
		ref, ok := resolve(q.req.Done)
		if !ok {
			return fmt.Errorf("mem: unresolvable queued request owner %T", q.req.Done)
		}
		st.Queue = append(st.Queue, QueuedReqState{Owner: ref, Arrival: q.arrival})
	}
	return nil
}

// SetState overwrites the controller's mutable state from a snapshot
// taken on an identically-configured model. Owner references must
// resolve to nodes whose request payloads were already restored (the
// bank/row mapping is recomputed from the request address).
func (s *SDRAM) SetState(st SDRAMState, resolve func(sim.OpRef) (any, bool)) error {
	if len(st.Banks) != len(s.banks) {
		return fmt.Errorf("mem: snapshot has %d banks, config needs %d", len(st.Banks), len(s.banks))
	}
	statecopy.CopyInto(&s.banks, st.Banks)
	s.stats = st.Stats
	s.dataBusFreeAt = st.DataBusFreeAt
	s.lastActAt = st.LastActAt
	s.anyActed = st.AnyActed
	s.kickPlanned = st.KickPlanned
	s.inflight = st.Inflight
	for i := range s.queue {
		s.queue[i] = sdramReq{}
	}
	s.queue = s.queue[:0]
	for i := range st.Queue {
		v, ok := resolve(st.Queue[i].Owner)
		if !ok {
			return fmt.Errorf("mem: unresolvable queued request owner ref %v", st.Queue[i].Owner)
		}
		h, ok := v.(ReqHolder)
		if !ok {
			return fmt.Errorf("mem: queued request owner %T does not expose its Req", v)
		}
		req := h.ReqPtr()
		b, row := s.mapAddr(req.Addr)
		s.queue = append(s.queue, sdramReq{req: req, arrival: st.Queue[i].Arrival, bank: b, row: row})
	}
	return nil
}

// State captures the constant-latency model's mutable state: its
// counters.
func (m *ConstLatency) State() Stats { return statecopy.Clone(m.st) }

// SetState overwrites the constant-latency model's counters.
func (m *ConstLatency) SetState(st Stats) { statecopy.CopyInto(&m.st, st) }

func init() {
	sim.RegisterFunc("mem.callReqDone", callReqDone)
	sim.RegisterFunc("mem.sdramXferDone", sdramXferDone)
	sim.RegisterFunc("mem.sdramFireKick", sdramFireKick)
}
