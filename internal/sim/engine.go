// Package sim implements the discrete-event simulation kernel that
// drives every MicroLib model. The kernel is a cycle counter and an
// event calendar. Components schedule static callbacks at absolute or
// relative cycles (AtFunc/AfterFunc); the host CPU model advances the
// clock and lets the kernel drain the events due at each cycle
// boundary.
//
// The calendar is a bucketed calendar queue tuned for the near-future
// skew of micro-architecture simulation: a ring of per-cycle FIFO
// buckets covers the next ringSize cycles (cache hit latencies, bus
// beats, SDRAM bursts all land here), and a small overflow min-heap
// absorbs the rare far-future events (refresh timers, deeply queued
// bus reservations). Events are intrusive singly-linked nodes drawn
// from a per-engine freelist, and each node packs a static function
// pointer with receiver and argument words, so steady-state scheduling
// performs no heap allocations. Because every pending event is a
// (Func, operands) pair and never a closure, any calendar can be
// serialized by Snapshot as long as its Funcs are registered.
//
// Determinism: events scheduled for the same cycle run in FIFO order
// of scheduling, so a simulation is a pure function of its inputs.
// The ring preserves FIFO directly (tail append, head pop); overflow
// events carry the global schedule sequence number and are promoted
// into the ring in (cycle, sequence) order strictly before any
// same-cycle event can be scheduled directly into the ring, which
// keeps the merged order identical to a single time-ordered list.
package sim

import (
	"math/bits"
	"slices"
)

const (
	// ringSize buckets of one cycle each cover the near horizon. The
	// window must comfortably exceed the longest common component
	// latency (an SDRAM row-conflict burst is ~200 cycles) so that
	// overflow traffic stays rare.
	ringSize = 1024
	ringMask = ringSize - 1
	occWords = ringSize / 64
)

// Func is the allocation-free callback shape: a static function that
// receives the firing cycle plus the receiver(s) and argument words
// that were packed into the pooled event at schedule time.
type Func func(now uint64, o1, o2 any, a0, a1 uint64)

// event is a pooled calendar node.
type event struct {
	when uint64
	seq  uint64 // global schedule order; orders overflow ties
	next *event // bucket FIFO / freelist link

	call   Func
	o1, o2 any
	a0, a1 uint64
}

// bucket is one cycle's FIFO list.
type bucket struct {
	head, tail *event
}

// Engine is the event kernel. The zero value is ready to use at
// cycle 0.
type Engine struct {
	now uint64
	seq uint64

	// base is the first cycle of the ring window [base, base+ringSize).
	// Invariants: base <= now+1 after every advance; every pending
	// event with when < base+ringSize sits in ring[when&ringMask];
	// every other pending event sits in overflow (so overflow's
	// minimum is always >= base+ringSize, and the ring minimum — when
	// the ring is non-empty — is the global minimum).
	base      uint64
	ring      [ringSize]bucket
	occ       [occWords]uint64 // occupancy bitmap over ring indices
	ringCount int

	overflow []*event // min-heap ordered by (when, seq)
	promote  []*event // batch-promotion scratch (empty between advances)

	free *event // node freelist

	scheduled uint64 // total events ever scheduled (stats)
	executed  uint64 // total events executed (stats)
}

// NewEngine returns a fresh kernel at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// get pops a node from the freelist or allocates one.
func (e *Engine) get() *event {
	ev := e.free
	if ev == nil {
		//ml:waive hotalloc -- pool growth: allocates only until the freelist reaches high-water mark, then never again
		return &event{}
	}
	e.free = ev.next
	return ev
}

// put clears a node's references and returns it to the freelist.
func (e *Engine) put(ev *event) {
	*ev = event{next: e.free}
	e.free = ev
}

// AtFunc schedules the static callback fn(now, o1, o2, a0, a1) at
// cycle. It allocates nothing in steady state: receivers travel in
// the interface words (pointer-shaped values only — no boxing) and
// scalar arguments in a0/a1, all packed into a pooled event node.
// Scheduling in the past (cycle < Now) is a programming error and
// panics: silently reordering time would destroy determinism.
//
//ml:hotpath
func (e *Engine) AtFunc(cycle uint64, fn Func, o1, o2 any, a0, a1 uint64) {
	ev := e.get()
	ev.call = fn
	ev.o1, ev.o2 = o1, o2
	ev.a0, ev.a1 = a0, a1
	e.schedule(cycle, ev)
}

// AfterFunc is AtFunc at now+delay.
//
//ml:hotpath
func (e *Engine) AfterFunc(delay uint64, fn Func, o1, o2 any, a0, a1 uint64) {
	e.AtFunc(e.now+delay, fn, o1, o2, a0, a1)
}

// schedule files the node under its cycle.
func (e *Engine) schedule(cycle uint64, ev *event) {
	if cycle < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.scheduled++
	ev.when = cycle
	ev.seq = e.seq
	if cycle < e.base+ringSize {
		e.ringPush(ev)
	} else {
		e.heapPush(ev)
	}
}

// ringPush appends the node to its cycle bucket's FIFO tail.
func (e *Engine) ringPush(ev *event) {
	idx := ev.when & ringMask
	ev.next = nil
	b := &e.ring[idx]
	if b.tail == nil {
		b.head = ev
		e.occ[idx>>6] |= 1 << (idx & 63)
	} else {
		b.tail.next = ev
	}
	b.tail = ev
	e.ringCount++
}

// advanceBase slides the ring window up to cycle t and promotes
// overflow events that fall inside the new window. Callers guarantee
// no pending event precedes t, so the buckets being vacated are empty
// and each promoted event lands in a bucket that cannot yet hold
// directly-scheduled events for its cycle — promotion order (when,
// seq) therefore preserves global FIFO.
func (e *Engine) advanceBase(t uint64) {
	if t <= e.base {
		return
	}
	e.base = t
	top := t + ringSize
	// Pop-per-event promotion is optimal for the common small drizzle
	// (a refresh timer or two). When a big window jump promotes a large
	// slab — skip phases, warm-state restores — each pop costs O(log n)
	// against the full heap; past a few pops on a still-large heap it is
	// cheaper to partition once and re-heapify both halves in O(n).
	pops := 0
	for len(e.overflow) > 0 && e.overflow[0].when < top {
		e.ringPush(e.heapPop())
		pops++
		if pops >= promotePopLimit && len(e.overflow) >= promoteBatchMin {
			e.batchPromote(top)
			return
		}
	}
}

const (
	// promotePopLimit pops are tried one at a time before switching to
	// the batch path; small promotions never pay the partition cost.
	promotePopLimit = 8
	// promoteBatchMin is the heap size below which batching cannot win.
	promoteBatchMin = 32
)

// batchPromote splits the overflow heap into events inside the new
// ring window and the rest. The remainder is re-heapified in place in
// O(n), amortizing what would otherwise be a log-cost pop against it
// per promoted event. The promotable slab needs no heap order at all:
// within one ring window every bucket holds exactly one cycle, so
// per-bucket FIFO reduces to scheduling order — a flat sort by
// sequence number followed by a linear push reproduces exactly the
// (when, seq) arrival order pop-wise promotion would have produced.
func (e *Engine) batchPromote(top uint64) {
	src := e.overflow
	keep := e.overflow[:0]
	pr := e.promote[:0]
	if cap(pr) < len(src) {
		//ml:waive hotalloc -- scratch growth: kept in e.promote below, so capacity is retained across advances
		pr = make([]*event, 0, len(src))
	}
	for _, ev := range src {
		if ev.when < top {
			pr = append(pr, ev)
		} else {
			keep = append(keep, ev)
		}
	}
	for i := len(keep); i < len(src); i++ {
		src[i] = nil
	}
	heapify(keep)
	e.overflow = keep
	slices.SortFunc(pr, eventSeqOrder)
	for i, ev := range pr {
		e.ringPush(ev)
		pr[i] = nil
	}
	e.promote = pr[:0]
}

// eventSeqOrder sorts promoted events by scheduling order. seq is
// unique per event, so this total order needs no tie-break and the
// sort's stability does not matter. Named (not a literal) so the hot
// promotion path provably allocates no capture environment.
func eventSeqOrder(a, b *event) int {
	if a.seq < b.seq {
		return -1
	}
	return 1
}

// nextAt returns the cycle of the earliest pending event. By the ring
// invariant the ring minimum (when present) precedes every overflow
// event, so the scan order is ring first, then overflow top.
func (e *Engine) nextAt() (uint64, bool) {
	if e.ringCount > 0 {
		return e.nextRing(), true
	}
	if len(e.overflow) > 0 {
		return e.overflow[0].when, true
	}
	return 0, false
}

// NextEventAt exposes the earliest pending event cycle; host cores
// use it to skip fully-stalled stretches of simulated time in one
// jump instead of stepping cycle by cycle.
func (e *Engine) NextEventAt() (uint64, bool) { return e.nextAt() }

// RetryTarget resolves a cache.Refusal hint into the next cycle a
// refused core should retry at. Timer-bound refusals carry an exact
// retryAt > now and the core jumps straight there; event-bound ones
// (retryAt == 0, e.g. a full MSHR that frees only when a fill lands)
// resolve to the next pending calendar event. A refused access always
// implies a pending event — the fetch or write-back that will unblock
// it — so the now+1 fallback is defensive, never a busy-wait.
//
//ml:hotpath
func (e *Engine) RetryTarget(now, retryAt uint64) uint64 {
	if retryAt > now {
		return retryAt
	}
	if t, ok := e.nextAt(); ok && t > now {
		return t
	}
	return now + 1
}

// nextRing scans the occupancy bitmap circularly from base and maps
// the first set bit back to its absolute cycle. Callers guarantee
// ringCount > 0. Cost is at most occWords word tests.
func (e *Engine) nextRing() uint64 {
	baseIdx := e.base & ringMask
	wi := baseIdx >> 6
	bi := baseIdx & 63
	if w := e.occ[wi] >> bi; w != 0 {
		return e.base + uint64(bits.TrailingZeros64(w))
	}
	// Offset of the first bit of word wi+k from base is (64-bi) +
	// (k-1)*64. The final iteration wraps back into word wi; its high
	// bits (>= bi) are known zero from the check above, so the
	// unmasked scan still yields the correct circular offset.
	off := 64 - bi
	for k := uint64(1); k <= occWords; k++ {
		if w := e.occ[(wi+k)&(occWords-1)]; w != 0 {
			return e.base + off + (k-1)*64 + uint64(bits.TrailingZeros64(w))
		}
	}
	panic("sim: ring occupancy desynchronized")
}

// runCycle advances the clock to t and drains bucket t in FIFO order,
// including events scheduled for t by the handlers themselves. It
// returns the number of events executed.
func (e *Engine) runCycle(t uint64) uint64 {
	e.advanceBase(t)
	e.now = t
	idx := t & ringMask
	b := &e.ring[idx]
	var n uint64
	for b.head != nil {
		ev := b.head
		b.head = ev.next
		if b.head == nil {
			b.tail = nil
		}
		e.ringCount--
		e.executed++
		n++
		// Copy out and recycle before the call: the handler may
		// schedule immediately and reuse this node.
		call, o1, o2, a0, a1 := ev.call, ev.o1, ev.o2, ev.a0, ev.a1
		e.put(ev)
		call(t, o1, o2, a0, a1)
	}
	e.occ[idx>>6] &^= 1 << (idx & 63)
	return n
}

// AdvanceTo moves the clock to cycle, executing every event due at or
// before it, in timestamp then FIFO order.
//
//ml:hotpath
func (e *Engine) AdvanceTo(cycle uint64) {
	for {
		t, ok := e.nextAt()
		if !ok || t > cycle {
			break
		}
		e.runCycle(t)
	}
	if cycle > e.now {
		e.now = cycle
		e.advanceBase(cycle)
	}
}

// Drain runs events until the calendar is empty or the clock would
// pass limit. It returns the number of events executed.
//
//ml:hotpath
func (e *Engine) Drain(limit uint64) uint64 {
	var n uint64
	for {
		t, ok := e.nextAt()
		if !ok || t > limit {
			break
		}
		n += e.runCycle(t)
	}
	return n
}

// Pending reports the number of events waiting in the calendar.
func (e *Engine) Pending() int { return e.ringCount + len(e.overflow) }

// Stats reports kernel counters.
func (e *Engine) Stats() (scheduled, executed uint64) {
	return e.scheduled, e.executed
}

// --- overflow min-heap, ordered by (when, seq) -----------------------
//
// Hand-rolled rather than container/heap to keep *event pointers out
// of interface conversions on the hot promotion path.

func overflowLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev *event) {
	ev.next = nil
	//ml:waive hotalloc -- amortized growth of e.overflow; reassigned to the field below, capacity is retained
	h := append(e.overflow, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !overflowLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.overflow = h
}

// siftDown restores the heap property at index i of h.
func siftDown(h []*event, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && overflowLess(h[l], h[small]) {
			small = l
		}
		if r < n && overflowLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// heapify orders an arbitrary slice into a (when, seq) min-heap in
// O(n).
func heapify(h []*event) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

func (e *Engine) heapPop() *event {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && overflowLess(h[l], h[small]) {
			small = l
		}
		if r < n && overflowLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	e.overflow = h
	return top
}
