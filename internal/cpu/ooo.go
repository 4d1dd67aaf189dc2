package cpu

import (
	"fmt"

	"microlib/internal/cache"
	"microlib/internal/hier"
	"microlib/internal/sim"
	"microlib/internal/trace"
)

// entry states
const (
	stWaiting uint8 = iota // dependences outstanding
	stReady                // ready to issue
	stIssued               // executing / memory outstanding
	stDone                 // result available
)

// OoO is the out-of-order host core. It is trace-driven: it consumes
// a trace.Stream and models timing only, with all memory behaviour
// delegated to the hierarchy.
type OoO struct {
	cfg    Config
	eng    *sim.Engine
	h      *hier.Hierarchy
	stream trace.Stream

	// st is the core's whole mutable state (window, front end,
	// functional-unit usage, result counters); StateInto and SetState copy
	// it whole. Everything below is wiring, run control or scratch.
	st OoOState

	// fetchRefuse is per-cycle scratch: the structured reason the
	// I-cache refused fetch this cycle (zero when fetch ran clean).
	// fetch() rewrites it every cycle before stallTarget reads it.
	fetchRefuse  cache.Refusal
	fetchScratch trace.Inst // reused fetch-loop scratch (kept off the heap)
	maxFetch     uint64

	// Pooled request state: loadReq nodes carry a load's Access with
	// the node itself as the pre-bound completion sink, and the core
	// itself is the one I-cache fill sink the front end ever needs.
	// Steady-state issue and fetch therefore allocate nothing.
	freeLoads *loadReq
	res       LoadResolver // reused by every NewLoadResolver
	rest      LoadRestorer // reused by every NewLoadRestorer

	// stopInsts, when non-zero, makes Run return at the first cycle
	// boundary after stopInsts instructions have committed (warm-state
	// prefix runs snapshot the machine there).
	stopInsts uint64

	// Warm-up: when warmInsts instructions have committed, onWarm
	// fires once (the runner snapshots statistics there).
	warmInsts uint64
	onWarm    func(cycles uint64)

	// storeAcc is the reused commit-stage store Access (the InOrder
	// pattern): a refused store at the window head retries every
	// cycle, and rebuilding the struct per attempt is pure garbage.
	// Write is bound once at construction.
	storeAcc cache.Access
	// headRefuse is per-cycle scratch: why the D-cache refused the
	// head store this cycle. Only meaningful while the head slot is
	// stDone and IsStore; commit() rewrites it on every refused
	// attempt before stallTarget reads it.
	headRefuse cache.Refusal
}

// SetWarmup arranges for fn to be called once, with the cycle count
// so far, when insts instructions have committed. Statistics
// measured from that point exclude cold-start effects — the scaled
// equivalent of the paper's long SimPoint traces reaching steady
// state.
func (o *OoO) SetWarmup(insts uint64, fn func(cycles uint64)) {
	o.warmInsts = insts
	o.onWarm = fn
}

// Committed returns the number of instructions retired so far; the
// telemetry sampler reads it mid-run.
func (o *OoO) Committed() uint64 { return o.st.Res.Insts }

// NewOoO builds the core on an engine and hierarchy.
func NewOoO(eng *sim.Engine, cfg Config, h *hier.Hierarchy, stream trace.Stream) *OoO {
	return NewOoORecycling(eng, cfg, h, stream, OoOStorage{})
}

// OoOStorage is a core's window, ready queue and free load nodes,
// detached from its core by TakeStorage so that a new core can reuse
// them (NewOoORecycling) while nothing else of the old core stays
// reachable.
type OoOStorage struct {
	win    []ROBEntryState
	readyQ []uint64
	loads  *loadReq
}

// TakeStorage detaches the core's window, ready queue and load-node
// freelist. The core must not be used again. Loads still in flight
// stay with the old core's calendar and caches and are not taken; the
// free ones no longer point back at the old core.
func (o *OoO) TakeStorage() OoOStorage {
	s := OoOStorage{o.st.Win, o.st.ReadyQ, o.freeLoads}
	o.st.Win, o.st.ReadyQ, o.freeLoads = nil, nil, nil
	for lr := s.loads; lr != nil; lr = lr.next {
		lr.o = nil
	}
	return s
}

// NewOoORecycling is NewOoO, except that the core takes spare's
// window (with each slot's waiter array) when it has exactly
// cfg.RUUSize slots, and spare's ready queue and free load nodes in
// any case. Every slot is cleared, so the core starts exactly as a
// fresh one; only slice capacities and pooled nodes carry over.
func NewOoORecycling(eng *sim.Engine, cfg Config, h *hier.Hierarchy, stream trace.Stream, spare OoOStorage) *OoO {
	cfg.Validate()
	o := &OoO{
		cfg:    cfg,
		eng:    eng,
		h:      h,
		stream: stream,
	}
	win := spare.win
	if len(win) == cfg.RUUSize {
		for i := range win {
			win[i] = ROBEntryState{Waiters: win[i].Waiters[:0]}
		}
	} else {
		win = make([]ROBEntryState, cfg.RUUSize)
	}
	o.st = OoOState{Win: win, ReadyQ: spare.readyQ[:0]}
	for lr := spare.loads; lr != nil; lr = lr.next {
		lr.o = o
	}
	o.freeLoads = spare.loads
	o.storeAcc.Write = true
	return o
}

// AccessDone implements cache.DoneSink for the front end: an I-cache
// fill arrived, fetch may resume.
func (o *OoO) AccessDone(now uint64, hit bool) { o.st.FetchBlocked = false }

// SetStop arranges for Run to return at the first cycle boundary
// after insts instructions have committed, leaving the machine (and
// the calendar) mid-flight exactly as a longer run would have it at
// that same boundary. Zero disables the stop.
func (o *OoO) SetStop(insts uint64) { o.stopInsts = insts }

// FetchReach bounds how far fetch runs ahead of a SetStop boundary:
// when Run stops at stop, it has committed fewer than
// stop+CommitWidth instructions and holds at most RUUSize more in the
// window, so it has fetched fewer than stop+FetchReach. FetchWidth is
// extra margin.
func (o *OoO) FetchReach() uint64 {
	return uint64(o.cfg.RUUSize + o.cfg.CommitWidth + o.cfg.FetchWidth)
}

// loadReq is one in-flight load's pooled Access; its Done callback is
// bound once at node construction.
type loadReq struct {
	o    *OoO
	seq  uint64
	acc  cache.Access
	next *loadReq
}

func (o *OoO) getLoad(seq uint64) *loadReq {
	lr := o.freeLoads
	if lr == nil {
		//ml:waive hotalloc -- pool growth: allocates until the freelist high-water mark, then never again
		lr = &loadReq{o: o}
		lr.acc.Done = lr
	} else {
		o.freeLoads = lr.next
	}
	lr.seq = seq
	return lr
}

func (o *OoO) putLoad(lr *loadReq) {
	lr.next = o.freeLoads
	o.freeLoads = lr
}

// AccessDone implements cache.DoneSink.
func (lr *loadReq) AccessDone(now uint64, hit bool) {
	o, seq := lr.o, lr.seq
	o.putLoad(lr)
	o.complete(seq)
}

func (o *OoO) slot(seq uint64) *ROBEntryState { return &o.st.Win[seq%uint64(len(o.st.Win))] }

// Run simulates until maxInsts instructions commit (or the stream
// ends) and returns the result.
//
// The loop steps one cycle at a time while the pipeline is active,
// but when a cycle makes no progress anywhere and every stage is
// provably waiting on a calendar event (or the fetch-redirect timer),
// it jumps the clock straight to the next event instead of stepping
// through the dead cycles one by one. Memory-bound workloads spend
// most of their time fully stalled on SDRAM, so this removes the
// dominant per-cycle overhead without changing a single observable:
// the skipped cycles are exactly those in which the per-cycle loop
// would have done nothing.
//
// When that gate declines but a cycle changed nothing except refusal
// counters (a quiet cycle: refused loads sit in the ready queue), and
// the next cycle is quiet too, every cycle up to the next calendar
// event or timer repeats it exactly; replayQuiet charges the repeats'
// counters in bulk and jumps.
func (o *OoO) Run(maxInsts uint64) Result {
	o.maxFetch = maxInsts
	cycle := o.eng.Now()
	lastCommit := cycle
	lastHead := o.st.Head
	var (
		// last is the quiet mark at the end of the previous cycle,
		// valid when haveLast: nothing changes between cycles, so it
		// is also the mark at the start of this one.
		last     quietMark
		haveLast bool
		armed    bool       // the previous cycle was quiet and from is set
		from     replayMark // counters at the start of this cycle
	)
	for {
		if o.stopInsts != 0 && o.st.Res.Insts >= o.stopInsts {
			// Prefix stop: advance the clock to the cycle the next
			// iteration would have processed (a resumed Run picks it
			// up from Engine.Now) and leave everything else in flight.
			o.eng.AdvanceTo(cycle)
			break
		}
		o.eng.AdvanceTo(cycle)
		nc := o.commit()
		ni := o.issue(cycle)
		nf := o.fetch(cycle)
		if o.st.FetchDone && o.st.Head == o.st.Tail {
			break
		}
		if o.st.Head != lastHead {
			lastHead = o.st.Head
			lastCommit = cycle
		} else if cycle-lastCommit > 2_000_000 {
			panic(fmt.Sprintf("cpu: no commit progress for 2M cycles at cycle %d (head=%d tail=%d state=%d pending=%d)",
				cycle, o.st.Head, o.st.Tail, o.slot(o.st.Head).State, o.slot(o.st.Head).Pending))
		}
		if nc == 0 && ni == 0 && nf == 0 && len(o.st.ReadyQ) == 0 && !o.st.FetchRetry {
			if t, ok := o.stallTarget(cycle); ok && t > cycle+1 {
				cycle = t
				haveLast, armed = false, false
				continue
			}
		}
		// Mark only idle cycles the gate could not judge because loads
		// wait in the ready queue or fetch lost a port. Any other idle
		// cycle the gate declined has its next event or timer a cycle
		// away, or a head store that lost its port to a same-cycle
		// fill event; neither can start a replay.
		if nc == 0 && ni == 0 && nf == 0 && (len(o.st.ReadyQ) > 0 || o.st.FetchRetry) {
			m := o.quietMark()
			quiet := haveLast && m == last
			last, haveLast = m, true
			if quiet && armed {
				if t, ok := o.replayQuiet(cycle, &from); ok {
					// The jump changes only counters, so last stays
					// the mark at the start of cycle t.
					cycle = t
					armed = false
					continue
				}
			}
			armed = quiet
			if armed {
				from = o.replayMark()
			}
		} else {
			haveLast, armed = false, false
		}
		cycle++
	}
	o.st.Res.Cycles = o.eng.Now()
	if o.st.Res.Cycles == 0 {
		o.st.Res.Cycles = 1
	}
	return o.st.Res
}

// quietMark is everything a cycle must leave unchanged to be quiet.
// Events and accepted accesses are the only ways the caches, the
// calendar and the window entries change; the remaining fields are
// the core state a refused cycle could still move. Port
// reservations, FU counts and the refusal scratch reset every cycle,
// so a quiet cycle changes nothing but the Retry* and Reject*
// counters and the aux probers' counts of missing probes.
type quietMark struct {
	events, l1d, l1i, head, tail          uint64
	ready                                 int
	fetchBlocked, haltOnBranch, hasStaged bool
	fetchDone                             bool
}

func (o *OoO) quietMark() quietMark {
	scheduled, executed := o.eng.Stats()
	return quietMark{
		events: scheduled + executed,
		l1d:    o.h.L1D.Accesses(), l1i: o.h.L1I.Accesses(),
		head: o.st.Head, tail: o.st.Tail, ready: len(o.st.ReadyQ),
		fetchBlocked: o.st.FetchBlocked, haltOnBranch: o.st.HaltOnBranch,
		hasStaged: o.st.HasStaged, fetchDone: o.st.FetchDone,
	}
}

// replayMark is the counter snapshot a replay charges from: the
// core's retries and both L1 caches' refusals.
type replayMark struct {
	retry    cache.Rejects
	l1d, l1i cache.Rejects
}

func (o *OoO) replayMark() replayMark {
	return replayMark{
		retry: cache.Rejects{Port: o.st.Res.RetryPort, Stall: o.st.Res.RetryStall, MSHR: o.st.Res.RetryMSHR},
		l1d:   o.h.L1D.Rejects(),
		l1i:   o.h.L1I.Rejects(),
	}
}

// replayQuiet handles a quiet cycle whose predecessor was quiet too;
// from holds the counters after that predecessor, so the deltas since
// are this cycle's alone. The cycles after it repeat it exactly until
// the first of: the next calendar event, FetchResumeAt, and the
// L1D/L1I stallUntil. Before then nothing can change — no event runs,
// no access is accepted, and every time comparison a cycle makes
// (cycle < FetchResumeAt, now < stallUntil) keeps its answer — and
// the idle-skip gate, which declined this cycle, declines each repeat
// for the same reason. replayQuiet charges the repeats' Retry* and
// Reject* deltas, the latter with their missing aux probes
// (cache.AddRejects), and returns that first cycle; ok is false when
// no repeat would be skipped.
//
//ml:hotpath
func (o *OoO) replayQuiet(cycle uint64, from *replayMark) (uint64, bool) {
	t, ok := o.eng.NextEventAt()
	for _, b := range [...]uint64{o.st.FetchResumeAt, o.h.L1D.StallUntil(), o.h.L1I.StallUntil()} {
		if b > cycle && (!ok || b < t) {
			t, ok = b, true
		}
	}
	if !ok || t <= cycle+1 {
		return 0, false
	}
	n := t - cycle - 1
	now := o.replayMark()
	d := now.retry.Sub(from.retry)
	o.st.Res.RetryPort += n * d.Port
	o.st.Res.RetryStall += n * d.Stall
	o.st.Res.RetryMSHR += n * d.MSHR
	o.h.L1D.AddRejects(now.l1d.Sub(from.l1d), n)
	o.h.L1I.AddRejects(now.l1i.Sub(from.l1i), n)
	return t, true
}

// stallTarget returns the next cycle at which the stalled core can
// possibly make progress: the earliest pending calendar event, capped
// by the fetch-redirect resume cycle and by any timer-bound refusal's
// RetryAt. ok is false when the stall is not provably event- or
// timer-bound (e.g. a store at the window head was refused by a cache
// port this cycle — ports free again next cycle, so skipping would be
// unsound).
//
//ml:hotpath
func (o *OoO) stallTarget(cycle uint64) (uint64, bool) {
	// capAt, when non-zero, is a timer bound contributed by a
	// stall-refused access: the refusal lifts at exactly that cycle,
	// so any jump must stop there.
	var capAt uint64
	if o.st.Head != o.st.Tail {
		// The oldest instruction must itself be waiting on an event.
		// A done head means commit is blocked on a cache refusal
		// instead — skippable only when the recorded reason proves
		// the refusal is timer- or event-bound.
		if e := o.slot(o.st.Head); e.State == stDone {
			if !e.IsStore {
				return 0, false
			}
			switch o.headRefuse.Reason {
			case cache.RefuseStall:
				capAt = o.headRefuse.RetryAt // stall lifts at a known cycle
			case cache.RefuseMSHR:
				// Event-bound: the blocking MSHR frees only when a
				// fill event lands, and fills live on the calendar.
			default:
				return 0, false // port conflict: free again next cycle
			}
		}
	} else if !(o.st.FetchBlocked || o.st.HaltOnBranch || o.st.FetchResumeAt > cycle) {
		// Empty window: only an event- or timer-bound front end
		// justifies a jump. A stall- or MSHR-refused I-cache access
		// qualifies; anything else (including a clean fetch that
		// placed nothing) does not.
		switch o.fetchRefuse.Reason {
		case cache.RefuseStall:
			capAt = o.fetchRefuse.RetryAt
		case cache.RefuseMSHR:
		default:
			return 0, false
		}
	}
	// A stall-refused fetch bounds the jump even when the head stall
	// is event-bound: fetch can make progress the cycle its stall
	// lifts, so never skip past it.
	if o.fetchRefuse.Reason == cache.RefuseStall &&
		(capAt == 0 || o.fetchRefuse.RetryAt < capAt) {
		capAt = o.fetchRefuse.RetryAt
	}
	t, ok := o.eng.NextEventAt()
	// A pending redirect wakes fetch at FetchResumeAt with no
	// calendar event involved; never jump past it.
	if o.st.FetchResumeAt > cycle && !o.st.FetchBlocked && !o.st.FetchDone && !o.st.HaltOnBranch {
		if !ok || o.st.FetchResumeAt < t {
			t, ok = o.st.FetchResumeAt, true
		}
	}
	if capAt > cycle && (!ok || capAt < t) {
		t, ok = capAt, true
	}
	return t, ok
}

// commit retires completed instructions in order; stores perform
// their cache write at commit and stall retirement when the cache
// refuses the access. It returns the number of instructions retired.
//
//ml:hotpath
func (o *OoO) commit() (committed int) {
	for n := 0; n < o.cfg.CommitWidth && o.st.Head < o.st.Tail; n++ {
		e := o.slot(o.st.Head)
		if e.State != stDone {
			return committed
		}
		if e.IsStore {
			o.storeAcc.Addr, o.storeAcc.PC = e.Addr, e.PC
			if r := o.h.L1D.Access(&o.storeAcc); !r.Accepted() {
				o.headRefuse = r
				o.st.Res.noteRetry(r.Reason)
				return committed // retry per the refusal reason
			}
			o.st.Res.Stores++
		}
		if e.Class == trace.Load {
			o.st.Res.Loads++
		}
		if e.Class.IsMem() {
			o.st.LSQUsed--
		}
		e.Waiters = e.Waiters[:0]
		o.st.Head++
		committed++
		o.st.Res.Insts++
		if o.onWarm != nil && o.st.Res.Insts == o.warmInsts {
			o.onWarm(o.eng.Now())
			o.onWarm = nil
		}
	}
	return committed
}

// issue walks the ready queue and dispatches up to IssueWidth
// instructions, respecting functional-unit counts; loads that the
// cache refuses stay queued (the LSQ-stall behaviour of Section 2.2).
// It returns the number of instructions issued.
//
//ml:hotpath
func (o *OoO) issue(cycle uint64) int {
	if cycle != o.st.FuCycle {
		o.st.FuCycle = cycle
		o.st.IntALU, o.st.IntMD, o.st.FPALU, o.st.FPMD, o.st.LS = 0, 0, 0, 0, 0
	}
	issued := 0
	kept := o.st.ReadyQ[:0]
	for i := 0; i < len(o.st.ReadyQ); i++ {
		seq := o.st.ReadyQ[i]
		if issued >= o.cfg.IssueWidth {
			kept = append(kept, o.st.ReadyQ[i:]...)
			break
		}
		e := o.slot(seq)
		if e.State != stReady {
			continue // defensive: already handled
		}
		if !o.fuAvailable(e.Class) {
			kept = append(kept, seq)
			continue
		}
		if e.Class == trace.Load {
			lr := o.getLoad(seq)
			lr.acc.Addr = e.Addr
			lr.acc.PC = e.PC
			if r := o.h.L1D.Access(&lr.acc); !r.Accepted() {
				o.st.Res.noteRetry(r.Reason)
				o.putLoad(lr)
				kept = append(kept, seq)
				continue
			}
			o.takeFU(e.Class)
			e.State = stIssued
			issued++
			continue
		}
		// Stores compute their address in one cycle; the memory write
		// happens at commit. ALU/branch classes complete after their
		// latency.
		o.takeFU(e.Class)
		e.State = stIssued
		issued++
		o.eng.AfterFunc(e.Class.Latency(), oooComplete, o, nil, seq, 0)
	}
	o.st.ReadyQ = kept
	return issued
}

// oooComplete is the pooled-event completion trampoline for ALU,
// branch and store-address operations.
func oooComplete(_ uint64, o1, _ any, seq, _ uint64) {
	o1.(*OoO).complete(seq)
}

func (o *OoO) fuAvailable(c trace.Class) bool {
	switch c {
	case trace.IntALU, trace.Branch:
		return o.st.IntALU < o.cfg.IntALU
	case trace.IntMult, trace.IntDiv:
		return o.st.IntMD < o.cfg.IntMultDiv
	case trace.FPALU:
		return o.st.FPALU < o.cfg.FPALU
	case trace.FPMult, trace.FPDiv:
		return o.st.FPMD < o.cfg.FPMultDiv
	case trace.Load, trace.Store:
		return o.st.LS < o.cfg.LoadStore
	}
	return true
}

func (o *OoO) takeFU(c trace.Class) {
	switch c {
	case trace.IntALU, trace.Branch:
		o.st.IntALU++
	case trace.IntMult, trace.IntDiv:
		o.st.IntMD++
	case trace.FPALU:
		o.st.FPALU++
	case trace.FPMult, trace.FPDiv:
		o.st.FPMD++
	case trace.Load, trace.Store:
		o.st.LS++
	}
}

// complete marks seq done and wakes its consumers.
func (o *OoO) complete(seq uint64) {
	e := o.slot(seq)
	if e.State == stDone {
		return
	}
	e.State = stDone
	for _, w := range e.Waiters {
		we := o.slot(w)
		we.Pending--
		if we.Pending == 0 && we.State == stWaiting {
			we.State = stReady
			o.st.ReadyQ = append(o.st.ReadyQ, w)
		}
	}
	e.Waiters = e.Waiters[:0]
	if e.Class == trace.Branch && e.Mispredict && o.st.HaltOnBranch && o.st.HaltBranchSeq == seq {
		o.st.HaltOnBranch = false
		o.st.FetchResumeAt = o.eng.Now() + o.cfg.MispredictPenalty
		o.st.Res.Mispredicts++
	}
}

// nextInst pulls the next instruction, honouring the staging slot.
func (o *OoO) nextInst(inst *trace.Inst) bool {
	if o.st.HasStaged {
		*inst = o.st.Staged
		o.st.HasStaged = false
		return true
	}
	return o.stream.Next(inst)
}

// stage parks an instruction that could not be placed this cycle.
func (o *OoO) stage(inst *trace.Inst) {
	o.st.Staged = *inst
	o.st.HasStaged = true
}

// fetch brings up to FetchWidth instructions into the window,
// modeling an I-cache access per line transition and halting on
// unresolved mispredicted branches. It returns the number of
// instructions placed, and flags (via FetchRetry) bail-outs that a
// plain next cycle could unblock — the idle-skip logic must not jump
// over those.
//
//ml:hotpath
func (o *OoO) fetch(cycle uint64) (placed int) {
	o.st.FetchRetry = false
	o.fetchRefuse = cache.Refusal{}
	if o.st.FetchDone || o.st.HaltOnBranch || o.st.FetchBlocked || cycle < o.st.FetchResumeAt {
		return 0
	}
	inst := &o.fetchScratch
	for n := 0; n < o.cfg.FetchWidth; n++ {
		if o.st.Fetched >= o.maxFetch {
			o.st.FetchDone = true
			return placed
		}
		if o.st.Tail-o.st.Head >= uint64(o.cfg.RUUSize) {
			return placed // window full
		}
		if !o.nextInst(inst) {
			o.st.FetchDone = true
			return placed
		}
		if inst.Class.IsMem() && o.st.LSQUsed >= o.cfg.LSQSize {
			o.stage(inst)
			return placed // LSQ full
		}

		// Instruction cache: one access per line transition.
		lineAddr := inst.PC &^ 31
		if lineAddr != o.st.CurFetchLine {
			present, _, _ := o.h.L1I.Probe(lineAddr)
			if present {
				acc := cache.Access{Addr: lineAddr, PC: inst.PC}
				if r := o.h.L1I.Access(&acc); !r.Accepted() {
					o.stage(inst)
					o.noteFetchRefusal(r)
					return placed // I-cache refused the hit access
				}
				o.st.CurFetchLine = lineAddr
			} else {
				acc := cache.Access{Addr: lineAddr, PC: inst.PC, Done: o}
				if r := o.h.L1I.Access(&acc); r.Accepted() {
					o.st.FetchBlocked = true
					o.st.CurFetchLine = lineAddr
				} else {
					o.noteFetchRefusal(r) // I-cache refused the miss
				}
				o.stage(inst)
				return placed
			}
		}

		o.place(inst)
		placed++
		o.st.Fetched++
		if inst.Class == trace.Branch && inst.Mispredict {
			o.st.HaltOnBranch = true
			o.st.HaltBranchSeq = o.st.Tail - 1
			return placed
		}
	}
	return placed
}

// noteFetchRefusal records an I-cache refusal for the idle-skip
// logic. Stall/MSHR refusals are timer-/event-bound: FetchRetry stays
// clear so stallTarget may jump (bounded by fetchRefuse.RetryAt for
// stalls). Port refusals free again next cycle with no calendar event
// involved, so they must keep blocking the skip, as before.
//
//ml:hotpath
func (o *OoO) noteFetchRefusal(r cache.Refusal) {
	o.fetchRefuse = r
	o.st.Res.noteRetry(r.Reason)
	if r.Reason != cache.RefuseStall && r.Reason != cache.RefuseMSHR {
		o.st.FetchRetry = true
	}
}

// place allocates a window entry and resolves its dependences.
func (o *OoO) place(inst *trace.Inst) {
	seq := o.st.Tail
	o.st.Tail++
	e := o.slot(seq)
	*e = ROBEntryState{
		Class:      inst.Class,
		PC:         inst.MemPC(),
		Addr:       inst.Addr,
		IsStore:    inst.Class == trace.Store,
		Mispredict: inst.Mispredict,
		State:      stWaiting,
		Waiters:    e.Waiters[:0],
	}
	if inst.Class.IsMem() {
		o.st.LSQUsed++
	}
	for _, d := range [2]uint16{inst.Dep1, inst.Dep2} {
		if d == 0 || uint64(d) > seq {
			continue
		}
		prod := seq - uint64(d)
		if prod < o.st.Head {
			continue // producer already committed: value available
		}
		pe := o.slot(prod)
		if pe.State == stDone {
			continue
		}
		pe.Waiters = append(pe.Waiters, seq)
		e.Pending++
	}
	if e.Pending == 0 {
		e.State = stReady
		o.st.ReadyQ = append(o.st.ReadyQ, seq)
	}
}
