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

type robEntry struct {
	class      trace.Class
	pc         uint64
	addr       uint64
	isStore    bool
	mispredict bool
	state      uint8
	pending    int
	waiters    []uint64 // absolute sequence numbers of consumers
}

// OoO is the out-of-order host core. It is trace-driven: it consumes
// a trace.Stream and models timing only, with all memory behaviour
// delegated to the hierarchy.
type OoO struct {
	cfg    Config
	eng    *sim.Engine
	h      *hier.Hierarchy
	stream trace.Stream

	win  []robEntry
	head uint64 // oldest in-flight sequence number
	tail uint64 // next sequence number to allocate

	readyQ []uint64

	lsqUsed int

	// Front-end state.
	fetchDone     bool   // stream exhausted or budget reached
	fetchBlocked  bool   // waiting on an I-cache fill
	fetchRetry    bool   // fetch bailed on a next-cycle-retriable resource
	fetchResumeAt uint64 // earliest fetch cycle after redirect
	// fetchRefuse is per-cycle scratch: the structured reason the
	// I-cache refused fetch this cycle (zero when fetch ran clean).
	// fetch() rewrites it every cycle before stallTarget reads it.
	fetchRefuse   cache.Refusal
	haltOnBranch  bool // a mispredicted branch is unresolved
	haltBranchSeq uint64
	curFetchLine  uint64
	staged        trace.Inst // one-instruction fetch stage
	hasStaged     bool
	fetchScratch  trace.Inst // reused fetch-loop scratch (kept off the heap)
	fetched       uint64
	maxFetch      uint64

	// Pooled request state: loadReq nodes carry a load's Access with
	// the node itself as the pre-bound completion sink, and the core
	// itself is the one I-cache fill sink the front end ever needs.
	// Steady-state issue and fetch therefore allocate nothing.
	freeLoads *loadReq

	// stopInsts, when non-zero, makes Run return at the first cycle
	// boundary after stopInsts instructions have committed (warm-state
	// prefix runs snapshot the machine there).
	stopInsts uint64

	// Per-cycle functional-unit usage.
	fuCycle                        uint64
	intALU, intMD, fpALU, fpMD, ls int

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
	// stDone and isStore; commit() rewrites it on every refused
	// attempt before stallTarget reads it.
	headRefuse cache.Refusal

	res Result
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
func (o *OoO) Committed() uint64 { return o.res.Insts }

// NewOoO builds the core on an engine and hierarchy.
func NewOoO(eng *sim.Engine, cfg Config, h *hier.Hierarchy, stream trace.Stream) *OoO {
	cfg.Validate()
	o := &OoO{
		cfg:    cfg,
		eng:    eng,
		h:      h,
		stream: stream,
		win:    make([]robEntry, cfg.RUUSize),
	}
	o.storeAcc.Write = true
	return o
}

// AccessDone implements cache.DoneSink for the front end: an I-cache
// fill arrived, fetch may resume.
func (o *OoO) AccessDone(now uint64, hit bool) { o.fetchBlocked = false }

// SetStop arranges for Run to return at the first cycle boundary
// after insts instructions have committed, leaving the machine (and
// the calendar) mid-flight exactly as a longer run would have it at
// that same boundary. Zero disables the stop.
func (o *OoO) SetStop(insts uint64) { o.stopInsts = insts }

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

func (o *OoO) slot(seq uint64) *robEntry { return &o.win[seq%uint64(len(o.win))] }

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
func (o *OoO) Run(maxInsts uint64) Result {
	o.maxFetch = maxInsts
	cycle := o.eng.Now()
	lastCommit := cycle
	lastHead := o.head
	for {
		if o.stopInsts != 0 && o.res.Insts >= o.stopInsts {
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
		if o.fetchDone && o.head == o.tail {
			break
		}
		if o.head != lastHead {
			lastHead = o.head
			lastCommit = cycle
		} else if cycle-lastCommit > 2_000_000 {
			panic(fmt.Sprintf("cpu: no commit progress for 2M cycles at cycle %d (head=%d tail=%d state=%d pending=%d)",
				cycle, o.head, o.tail, o.slot(o.head).state, o.slot(o.head).pending))
		}
		if nc == 0 && ni == 0 && nf == 0 && len(o.readyQ) == 0 && !o.fetchRetry {
			if t, ok := o.stallTarget(cycle); ok && t > cycle+1 {
				cycle = t
				continue
			}
		}
		cycle++
	}
	o.res.Cycles = o.eng.Now()
	if o.res.Cycles == 0 {
		o.res.Cycles = 1
	}
	return o.res
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
	if o.head != o.tail {
		// The oldest instruction must itself be waiting on an event.
		// A done head means commit is blocked on a cache refusal
		// instead — skippable only when the recorded reason proves
		// the refusal is timer- or event-bound.
		if e := o.slot(o.head); e.state == stDone {
			if !e.isStore {
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
	} else if !(o.fetchBlocked || o.haltOnBranch || o.fetchResumeAt > cycle) {
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
	// A pending redirect wakes fetch at fetchResumeAt with no
	// calendar event involved; never jump past it.
	if o.fetchResumeAt > cycle && !o.fetchBlocked && !o.fetchDone && !o.haltOnBranch {
		if !ok || o.fetchResumeAt < t {
			t, ok = o.fetchResumeAt, true
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
	for n := 0; n < o.cfg.CommitWidth && o.head < o.tail; n++ {
		e := o.slot(o.head)
		if e.state != stDone {
			return committed
		}
		if e.isStore {
			o.storeAcc.Addr, o.storeAcc.PC = e.addr, e.pc
			if r := o.h.L1D.Access(&o.storeAcc); !r.Accepted() {
				o.headRefuse = r
				o.res.noteRetry(r.Reason)
				return committed // retry per the refusal reason
			}
			o.res.Stores++
		}
		if e.class == trace.Load {
			o.res.Loads++
		}
		if e.class.IsMem() {
			o.lsqUsed--
		}
		e.waiters = e.waiters[:0]
		o.head++
		committed++
		o.res.Insts++
		if o.onWarm != nil && o.res.Insts == o.warmInsts {
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
	if cycle != o.fuCycle {
		o.fuCycle = cycle
		o.intALU, o.intMD, o.fpALU, o.fpMD, o.ls = 0, 0, 0, 0, 0
	}
	issued := 0
	kept := o.readyQ[:0]
	for i := 0; i < len(o.readyQ); i++ {
		seq := o.readyQ[i]
		if issued >= o.cfg.IssueWidth {
			kept = append(kept, o.readyQ[i:]...)
			break
		}
		e := o.slot(seq)
		if e.state != stReady {
			continue // defensive: already handled
		}
		if !o.fuAvailable(e.class) {
			kept = append(kept, seq)
			continue
		}
		if e.class == trace.Load {
			lr := o.getLoad(seq)
			lr.acc.Addr = e.addr
			lr.acc.PC = e.pc
			if r := o.h.L1D.Access(&lr.acc); !r.Accepted() {
				o.res.noteRetry(r.Reason)
				o.putLoad(lr)
				kept = append(kept, seq)
				continue
			}
			o.takeFU(e.class)
			e.state = stIssued
			issued++
			continue
		}
		// Stores compute their address in one cycle; the memory write
		// happens at commit. ALU/branch classes complete after their
		// latency.
		o.takeFU(e.class)
		e.state = stIssued
		issued++
		o.eng.AfterFunc(e.class.Latency(), oooComplete, o, nil, seq, 0)
	}
	o.readyQ = kept
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
		return o.intALU < o.cfg.IntALU
	case trace.IntMult, trace.IntDiv:
		return o.intMD < o.cfg.IntMultDiv
	case trace.FPALU:
		return o.fpALU < o.cfg.FPALU
	case trace.FPMult, trace.FPDiv:
		return o.fpMD < o.cfg.FPMultDiv
	case trace.Load, trace.Store:
		return o.ls < o.cfg.LoadStore
	}
	return true
}

func (o *OoO) takeFU(c trace.Class) {
	switch c {
	case trace.IntALU, trace.Branch:
		o.intALU++
	case trace.IntMult, trace.IntDiv:
		o.intMD++
	case trace.FPALU:
		o.fpALU++
	case trace.FPMult, trace.FPDiv:
		o.fpMD++
	case trace.Load, trace.Store:
		o.ls++
	}
}

// complete marks seq done and wakes its consumers.
func (o *OoO) complete(seq uint64) {
	e := o.slot(seq)
	if e.state == stDone {
		return
	}
	e.state = stDone
	for _, w := range e.waiters {
		we := o.slot(w)
		we.pending--
		if we.pending == 0 && we.state == stWaiting {
			we.state = stReady
			o.readyQ = append(o.readyQ, w)
		}
	}
	e.waiters = e.waiters[:0]
	if e.class == trace.Branch && e.mispredict && o.haltOnBranch && o.haltBranchSeq == seq {
		o.haltOnBranch = false
		o.fetchResumeAt = o.eng.Now() + o.cfg.MispredictPenalty
		o.res.Mispredicts++
	}
}

// nextInst pulls the next instruction, honouring the staging slot.
func (o *OoO) nextInst(inst *trace.Inst) bool {
	if o.hasStaged {
		*inst = o.staged
		o.hasStaged = false
		return true
	}
	return o.stream.Next(inst)
}

// stage parks an instruction that could not be placed this cycle.
func (o *OoO) stage(inst *trace.Inst) {
	o.staged = *inst
	o.hasStaged = true
}

// fetch brings up to FetchWidth instructions into the window,
// modeling an I-cache access per line transition and halting on
// unresolved mispredicted branches. It returns the number of
// instructions placed, and flags (via fetchRetry) bail-outs that a
// plain next cycle could unblock — the idle-skip logic must not jump
// over those.
//
//ml:hotpath
func (o *OoO) fetch(cycle uint64) (placed int) {
	o.fetchRetry = false
	o.fetchRefuse = cache.Refusal{}
	if o.fetchDone || o.haltOnBranch || o.fetchBlocked || cycle < o.fetchResumeAt {
		return 0
	}
	inst := &o.fetchScratch
	for n := 0; n < o.cfg.FetchWidth; n++ {
		if o.fetched >= o.maxFetch {
			o.fetchDone = true
			return placed
		}
		if o.tail-o.head >= uint64(o.cfg.RUUSize) {
			return placed // window full
		}
		if !o.nextInst(inst) {
			o.fetchDone = true
			return placed
		}
		if inst.Class.IsMem() && o.lsqUsed >= o.cfg.LSQSize {
			o.stage(inst)
			return placed // LSQ full
		}

		// Instruction cache: one access per line transition.
		lineAddr := inst.PC &^ 31
		if lineAddr != o.curFetchLine {
			present, _, _ := o.h.L1I.Probe(lineAddr)
			if present {
				acc := cache.Access{Addr: lineAddr, PC: inst.PC}
				if r := o.h.L1I.Access(&acc); !r.Accepted() {
					o.stage(inst)
					o.noteFetchRefusal(r)
					return placed // I-cache refused the hit access
				}
				o.curFetchLine = lineAddr
			} else {
				acc := cache.Access{Addr: lineAddr, PC: inst.PC, Done: o}
				if r := o.h.L1I.Access(&acc); r.Accepted() {
					o.fetchBlocked = true
					o.curFetchLine = lineAddr
				} else {
					o.noteFetchRefusal(r) // I-cache refused the miss
				}
				o.stage(inst)
				return placed
			}
		}

		o.place(inst)
		placed++
		o.fetched++
		if inst.Class == trace.Branch && inst.Mispredict {
			o.haltOnBranch = true
			o.haltBranchSeq = o.tail - 1
			return placed
		}
	}
	return placed
}

// noteFetchRefusal records an I-cache refusal for the idle-skip
// logic. Stall/MSHR refusals are timer-/event-bound: fetchRetry stays
// clear so stallTarget may jump (bounded by fetchRefuse.RetryAt for
// stalls). Port refusals free again next cycle with no calendar event
// involved, so they must keep blocking the skip, as before.
//
//ml:hotpath
func (o *OoO) noteFetchRefusal(r cache.Refusal) {
	o.fetchRefuse = r
	o.res.noteRetry(r.Reason)
	if r.Reason != cache.RefuseStall && r.Reason != cache.RefuseMSHR {
		o.fetchRetry = true
	}
}

// place allocates a window entry and resolves its dependences.
func (o *OoO) place(inst *trace.Inst) {
	seq := o.tail
	o.tail++
	e := o.slot(seq)
	*e = robEntry{
		class:      inst.Class,
		pc:         inst.MemPC(),
		addr:       inst.Addr,
		isStore:    inst.Class == trace.Store,
		mispredict: inst.Mispredict,
		state:      stWaiting,
		waiters:    e.waiters[:0],
	}
	if inst.Class.IsMem() {
		o.lsqUsed++
	}
	for _, d := range [2]uint16{inst.Dep1, inst.Dep2} {
		if d == 0 || uint64(d) > seq {
			continue
		}
		prod := seq - uint64(d)
		if prod < o.head {
			continue // producer already committed: value available
		}
		pe := o.slot(prod)
		if pe.state == stDone {
			continue
		}
		pe.waiters = append(pe.waiters, seq)
		e.pending++
	}
	if e.pending == 0 {
		e.state = stReady
		o.readyQ = append(o.readyQ, seq)
	}
}
