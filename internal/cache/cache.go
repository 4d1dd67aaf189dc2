package cache

import (
	"math/bits"

	"microlib/internal/sim"
)

// FillSink receives fetched line data. The requesting cache itself is
// the sink (its FillLine method), so a backend needs no per-request
// callback closure: it carries the (sink, lineAddr) pair in its own
// pooled request state and delivers the fill with one interface call.
type FillSink interface {
	// FillLine delivers the line data at cycle now.
	FillLine(lineAddr, now uint64)
}

// Backend is the downstream side of a cache: the next cache level or
// main memory, reached across a bus. Fetch requests a full line;
// sink.FillLine fires when the line data has arrived at this cache. A
// false return means the request was not accepted this cycle
// (bus/queue pressure) and must be retried; for prefetches a false
// return also signals "the bus is not idle", implementing the
// demand-priority rule the paper describes for prefetch queues.
type Backend interface {
	Fetch(lineAddr, pc uint64, prefetch bool, sink FillSink) bool
	WriteBack(lineAddr uint64) bool
	// FreeAtHint returns a cycle at which the backend is likely to
	// accept again, used to schedule retries without polling.
	FreeAtHint() uint64
}

// DoneSink receives access completions. Requesters are identifiable
// objects (pooled request nodes, core front-ends) rather than
// closures so that in-flight requests parked in MSHRs and calendar
// events can be enumerated and serialized by the warm-state
// checkpointing machinery.
type DoneSink interface {
	// AccessDone fires exactly once when the data is available (the
	// cycle of completion). hit reports whether it was a first-level
	// hit (including aux hits).
	AccessDone(now uint64, hit bool)
}

// DoneFunc adapts a plain function to DoneSink (tests and one-off
// probes; the simulation hot paths use concrete pooled sinks).
type DoneFunc func(now uint64, hit bool)

// AccessDone implements DoneSink.
func (f DoneFunc) AccessDone(now uint64, hit bool) { f(now, hit) }

// RedirectSink receives prefetch fills that bypass the cache array
// (mechanisms with private prefetch buffers implement it).
type RedirectSink interface {
	// RedirectFill delivers the prefetched line at cycle now.
	RedirectFill(lineAddr, now uint64)
}

// RedirectFunc adapts a plain function to RedirectSink (tests).
type RedirectFunc func(lineAddr, now uint64)

// RedirectFill implements RedirectSink.
func (f RedirectFunc) RedirectFill(lineAddr, now uint64) { f(lineAddr, now) }

// Access is one demand request from the processor side (or from the
// level above). Done may be nil.
type Access struct {
	Addr  uint64
	PC    uint64
	Write bool
	// Done is notified exactly once when the data is available.
	Done DoneSink
}

// Reason classifies the outcome of an Access submission. The zero
// value is acceptance, so the zero Refusal means "taken this cycle".
type Reason uint8

const (
	// Accepted: the cache took the request this cycle.
	Accepted Reason = iota
	// RefusePort: every port is reserved this cycle. Ports reset at
	// the next cycle boundary, so the refusal is timer-bound with
	// RetryAt = now+1.
	RefusePort
	// RefuseStall: the cache pipeline is stalled (Section 2.2 rules).
	// stallUntil only ever moves forward, so the refusal is
	// timer-bound with RetryAt = stallUntil — no acceptance is
	// possible earlier.
	RefuseStall
	// RefuseMSHR: the miss address file is full or the merge target
	// reached its read limit. MSHR entries free only when a fill event
	// completes (FillLine), so the refusal is event-bound: RetryAt is
	// 0 and the caller must consult the calendar (NextEventAt).
	RefuseMSHR
)

// String names the reason for reports and tests.
func (r Reason) String() string {
	switch r {
	case Accepted:
		return "accepted"
	case RefusePort:
		return "port"
	case RefuseStall:
		return "stall"
	case RefuseMSHR:
		return "mshr"
	}
	return "unknown"
}

// Refusal is the structured result of Access: why the cache could not
// take the request this cycle and when a retry can first succeed. The
// zero value means accepted. A single-accessor caller (a blocked
// core) may jump its clock straight to RetryAt — or, for event-bound
// refusals, to the next calendar event — instead of polling every
// cycle: refused attempts have no side effects beyond reject
// counters and aux probers' probe counts, so the acceptance cycle is
// identical either way (the oracle property test in refusal_test.go
// pins this).
type Refusal struct {
	Reason Reason
	// RetryAt is the exact earliest cycle a retry can be accepted for
	// timer-bound refusals (Port, Stall); 0 for event-bound refusals
	// (MSHR), where the wake-up is the next calendar event.
	RetryAt uint64
}

// Accepted reports whether the access was taken.
func (r Refusal) Accepted() bool { return r.Reason == Accepted }

// EventBound reports whether the retry is gated on a calendar event
// rather than a known cycle.
func (r Refusal) EventBound() bool { return r.Reason == RefuseMSHR }

type mshrEntry struct {
	valid     bool
	lineAddr  uint64
	firstAddr uint64
	pc        uint64
	reads     int
	fillDirty bool
	prefetch  bool
	issued    bool
	// redirect, when non-nil, receives the fill instead of the cache
	// array (prefetch-buffer mechanisms use this).
	redirect RedirectSink
	targets  []DoneSink
}

// clear empties the entry but keeps the targets backing array, so the
// steady-state miss path appends into recycled capacity instead of
// reallocating per fill.
func (e *mshrEntry) clear() {
	tg := e.targets[:0]
	for i := range e.targets {
		e.targets[i] = nil
	}
	*e = mshrEntry{}
	e.targets = tg
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg Config
	eng *sim.Engine

	// lines is the array, row-major over (set, way): set s is
	// lines[s*ways : (s+1)*ways]. One pointer-free block, so the GC
	// never scans it and a recycled machine can hand it on whole.
	lines     []LineState
	ways      int
	setMask   uint64
	lineShift uint
	useTick   uint64

	backend Backend
	mshrs   []mshrEntry
	mshrsIn int // valid entries

	// Pipeline stall state (Section 2.2 rules).
	stallUntil uint64

	// Port accounting: portsUsed counts this-cycle reservations.
	portCycle uint64
	portsUsed int

	// Prefetch request queue (mechanism-facing): a head-indexed slice
	// so pops reuse the backing array instead of re-slicing it away.
	pq         []prefetchReq
	pqHead     int
	pqRetryArm bool
	// prefetchAsDemand disables the low-priority treatment of
	// prefetches downstream (an ablation of the demand-priority
	// design choice).
	prefetchAsDemand bool

	accessObs []AccessObserver
	probers   []AuxProber
	evictObs  []EvictObserver
	fillObs   []FillObserver
	missObs   []MissObserver

	checker *Checker

	// dirtyLRU is the drain index, allocated by TrackDirtyLRU: bit s
	// is set exactly when the LRU valid line of set s is dirty. Every
	// line mutation recomputes its set's bit, so DrainDirtyLRU visits
	// only the sets it will clean. drainBuf is DrainDirtyLRU's reused
	// result buffer.
	dirtyLRU []uint64
	drainBuf []uint64

	stats Stats
	// probed counts the refused primary misses, each of which
	// consulted every prober first; a replaying core reads it only as
	// a delta (Rejects.Probed).
	probed uint64
}

type prefetchReq struct {
	lineAddr uint64
	redirect RedirectSink
}

// New builds a cache on the engine with the given backend (which may
// be nil only if the cache can never miss — tests use that).
func New(eng *sim.Engine, cfg Config, backend Backend) *Cache {
	return NewRecycling(eng, cfg, backend, Storage{})
}

// Storage is a cache's line array, detached from its cache by
// TakeStorage so that a new cache can reuse it (NewRecycling) while
// nothing else of the old cache stays reachable.
type Storage struct{ lines []LineState }

// TakeStorage detaches the cache's line array. The cache must not be
// used again.
func (c *Cache) TakeStorage() Storage {
	s := Storage{c.lines}
	c.lines = nil
	return s
}

// NewRecycling is New, except that the line array is spare's when
// spare holds exactly as many lines as cfg needs (the zero Storage
// never does). The array is cleared, so the new cache starts exactly
// as a fresh one. Every other field is built fresh.
func NewRecycling(eng *sim.Engine, cfg Config, backend Backend, spare Storage) *Cache {
	cfg.Validate()
	nsets := cfg.NumSets()
	ways := cfg.Ways()
	lines := spare.lines
	if len(lines) == nsets*ways {
		clear(lines)
	} else {
		lines = make([]LineState, nsets*ways)
	}
	nm := cfg.MSHRs
	if cfg.InfiniteMSHR {
		// "Infinite" means never a structural stall; a generous pool
		// that grows on demand keeps the implementation simple.
		nm = 64
	}
	ls := uint(0)
	for 1<<ls != cfg.LineSize {
		ls++
	}
	return &Cache{
		cfg:       cfg,
		eng:       eng,
		lines:     lines,
		ways:      ways,
		setMask:   uint64(nsets - 1),
		lineShift: ls,
		backend:   backend,
		mshrs:     make([]mshrEntry, nm),
	}
}

// Config returns the active configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the cumulative counters.
func (c *Cache) Stats() Stats { return c.stats }

// Accesses returns the demand accesses accepted so far:
// Stats().Accesses without copying the whole counter block.
func (c *Cache) Accesses() uint64 { return c.stats.Accesses }

// Rejects is the refusal counters alone, by reason, plus Probed: the
// refused primary misses, which probed every aux prober (each missed)
// before the MSHR check refused them.
type Rejects struct{ Port, Stall, MSHR, Probed uint64 }

// Rejects returns the refusal counters.
func (c *Cache) Rejects() Rejects {
	return Rejects{c.stats.RejectPort, c.stats.RejectStall, c.stats.RejectMSHR, c.probed}
}

// AddRejects charges n repeats of the refusal counts d, including
// n*d.Probed missing probes to every aux prober. A host core that
// jumps over a run of identical refused cycles charges them here, so
// the counters equal those of stepping every cycle.
func (c *Cache) AddRejects(d Rejects, n uint64) {
	c.stats.RejectPort += n * d.Port
	c.stats.RejectStall += n * d.Stall
	c.stats.RejectMSHR += n * d.MSHR
	c.probed += n * d.Probed
	for _, p := range c.probers {
		p.RepeatMisses(n * d.Probed)
	}
}

// Sub returns the counter deltas r - prev.
func (r Rejects) Sub(prev Rejects) Rejects {
	return Rejects{r.Port - prev.Port, r.Stall - prev.Stall, r.MSHR - prev.MSHR, r.Probed - prev.Probed}
}

// StallUntil returns the cycle the pipeline stall lifts: every access
// before it is refused with RefuseStall.
func (c *Cache) StallUntil() uint64 { return c.stallUntil }

// LineAddr aligns an address to this cache's line size.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineSize) - 1)
}

// set returns the ways of set si.
func (c *Cache) set(si uint64) []LineState {
	i := int(si) * c.ways
	return c.lines[i : i+c.ways : i+c.ways]
}

// numSets returns the number of sets.
func (c *Cache) numSets() int { return int(c.setMask) + 1 }

func (c *Cache) setIndex(lineAddr uint64) uint64 {
	return (lineAddr >> c.lineShift) & c.setMask
}

func (c *Cache) tag(lineAddr uint64) uint64 {
	return lineAddr >> c.lineShift
}

// Contains reports whether the line is present (no state change).
func (c *Cache) Contains(addr uint64) bool {
	la := c.LineAddr(addr)
	set := c.set(c.setIndex(la))
	t := c.tag(la)
	for i := range set {
		if set[i].Valid && set[i].Tag == t {
			return true
		}
	}
	return false
}

// MissPending reports whether a fill for the line is outstanding.
func (c *Cache) MissPending(addr uint64) bool {
	la := c.LineAddr(addr)
	for i := range c.mshrs {
		if c.mshrs[i].valid && c.mshrs[i].lineAddr == la {
			return true
		}
	}
	return false
}

// reservePort accounts one port use at now; returns false when all
// ports are taken this cycle. force (refills) always succeeds but
// still consumes capacity, implementing the paper's "refill requests
// strictly consume ports" rule.
func (c *Cache) reservePort(now uint64, force bool) bool {
	if now != c.portCycle {
		c.portCycle = now
		c.portsUsed = 0
	}
	if force {
		if !c.cfg.FreeRefillPorts {
			c.portsUsed++
		}
		return true
	}
	if c.portsUsed >= c.cfg.Ports {
		return false
	}
	c.portsUsed++
	return true
}

// Probe performs a tag lookup without side effects, returning
// (present, dirty, prefetched).
func (c *Cache) Probe(addr uint64) (present, dirty, prefetched bool) {
	la := c.LineAddr(addr)
	set := c.set(c.setIndex(la))
	t := c.tag(la)
	for i := range set {
		if set[i].Valid && set[i].Tag == t {
			return true, set[i].Dirty, set[i].Prefetched
		}
	}
	return false, false, false
}

// Access submits a demand request. The returned Refusal is zero when
// the cache accepted the request this cycle; otherwise it carries the
// refusal reason and retry hint (no port, pipeline stall, MSHR full)
// and the caller must retry on a later cycle. Refused attempts leave
// no trace but the Reject* counters and — for MSHR refusals, which
// pass the port gate first — one port reservation that expires at the
// next cycle boundary.
//
//ml:hotpath
func (c *Cache) Access(a *Access) Refusal {
	now := c.eng.Now()
	if !c.cfg.NoPipelineStall && now < c.stallUntil {
		c.stats.RejectStall++
		return Refusal{Reason: RefuseStall, RetryAt: c.stallUntil}
	}
	if !c.reservePort(now, false) {
		c.stats.RejectPort++
		return Refusal{Reason: RefusePort, RetryAt: now + 1}
	}

	la := c.LineAddr(a.Addr)
	si := c.setIndex(la)
	set := c.set(si)
	t := c.tag(la)

	// Hit path.
	for i := range set {
		ln := &set[i]
		if !ln.Valid || ln.Tag != t {
			continue
		}
		c.stats.Accesses++
		if a.Write {
			c.stats.Writes++
			if c.cfg.WriteBack {
				ln.Dirty = true
			}
			if c.checker != nil {
				c.checker.noteStore(la)
			}
		}
		c.stats.Hits++
		wasPF := ln.Prefetched
		if wasPF {
			c.stats.PrefetchUseful++
			ln.Prefetched = false
		}
		c.useTick++
		ln.LastUse = c.useTick
		c.noteLRU(si)
		c.notifyAccess(AccessEvent{
			Addr: a.Addr, LineAddr: la, PC: a.PC, Write: a.Write,
			Hit: true, PrefetchedLine: wasPF, Now: now,
		})
		if a.Done != nil {
			c.eng.AfterFunc(c.cfg.HitLatency, callDoneHit, a.Done, nil, 0, 0)
		}
		return Refusal{}
	}

	// Miss: try to merge into an existing MSHR first, because a full
	// merge target must *refuse* (LSQ stall) rather than allocate.
	if idx := c.findMSHR(la); idx >= 0 {
		e := &c.mshrs[idx]
		if e.reads >= c.cfg.ReadsPerMSHR && !c.cfg.InfiniteMSHR {
			c.stats.RejectMSHR++
			return Refusal{Reason: RefuseMSHR}
		}
		c.stats.Accesses++
		c.stats.Misses++
		if a.Write {
			c.stats.Writes++
			e.fillDirty = c.cfg.WriteBack
			if c.checker != nil {
				c.checker.noteStore(la)
			}
		}
		// Secondary miss on the same line but a different address
		// stalls the cache pipeline for a cycle (Section 2.2).
		if a.Addr != e.firstAddr && !c.cfg.NoPipelineStall {
			c.stallUntil = now + 2
		}
		e.reads++
		if a.Done != nil {
			e.targets = append(e.targets, a.Done)
		}
		// A demand merge upgrades a prefetch fill to demand priority.
		e.prefetch = false
		c.notifyAccess(AccessEvent{
			Addr: a.Addr, LineAddr: la, PC: a.PC, Write: a.Write,
			Hit: false, Now: now,
		})
		return Refusal{}
	}

	// Consult auxiliary structures (victim cache, FVC, prefetch
	// buffers). An aux hit installs locally with one extra cycle.
	for _, p := range c.probers {
		if !p.ProbeAux(la, now) {
			continue
		}
		c.stats.Accesses++
		c.stats.AuxHits++
		c.stats.Hits++
		c.install(la, a.Write && c.cfg.WriteBack, false, now)
		if a.Write {
			c.stats.Writes++
			if c.checker != nil {
				c.checker.noteStore(la)
			}
		}
		c.notifyAccess(AccessEvent{
			Addr: a.Addr, LineAddr: la, PC: a.PC, Write: a.Write,
			Hit: true, Now: now,
		})
		if a.Done != nil {
			c.eng.AfterFunc(c.cfg.HitLatency+1, callDoneHit, a.Done, nil, 0, 0)
		}
		return Refusal{}
	}

	// Primary miss: allocate an MSHR.
	free := c.freeMSHR()
	if free < 0 {
		c.stats.RejectMSHR++
		c.probed++
		return Refusal{Reason: RefuseMSHR}
	}
	c.stats.Accesses++
	c.stats.Misses++
	if a.Write {
		c.stats.Writes++
		if c.checker != nil {
			c.checker.noteStore(la)
		}
	}
	e := &c.mshrs[free]
	e.valid = true
	e.lineAddr = la
	e.firstAddr = a.Addr
	e.pc = a.PC
	e.reads = 1
	e.fillDirty = a.Write && c.cfg.WriteBack
	if a.Done != nil {
		e.targets = append(e.targets, a.Done)
	}
	c.mshrsIn++
	// The MSHR is busy for a cycle after receiving a request
	// (Section 2.2).
	if !c.cfg.NoPipelineStall {
		c.stallUntil = now + 2
	}
	c.notifyAccess(AccessEvent{
		Addr: a.Addr, LineAddr: la, PC: a.PC, Write: a.Write,
		Hit: false, Now: now,
	})
	for _, m := range c.missObs {
		m.OnMiss(la, a.PC, now)
	}
	c.issueFetch(free)
	return Refusal{}
}

// notifyAccess delivers an event to every observer.
func (c *Cache) notifyAccess(ev AccessEvent) {
	for _, o := range c.accessObs {
		o.OnAccess(ev)
	}
}

func (c *Cache) findMSHR(lineAddr uint64) int {
	for i := range c.mshrs {
		if c.mshrs[i].valid && c.mshrs[i].lineAddr == lineAddr {
			return i
		}
	}
	return -1
}

func (c *Cache) freeMSHR() int {
	for i := range c.mshrs {
		if !c.mshrs[i].valid {
			return i
		}
	}
	if c.cfg.InfiniteMSHR {
		c.mshrs = append(c.mshrs, mshrEntry{})
		return len(c.mshrs) - 1
	}
	return -1
}

// issueFetch pushes MSHR entry i downstream, retrying on backend
// pushback. The cache itself is the fill sink, so no per-request
// callback is allocated.
func (c *Cache) issueFetch(i int) {
	e := &c.mshrs[i]
	if e.issued || !e.valid {
		return
	}
	if c.backend.Fetch(e.lineAddr, e.pc, e.prefetch, c) {
		e.issued = true
		return
	}
	// Retry when the backend hints it may accept.
	retry := c.backend.FreeAtHint()
	if retry <= c.eng.Now() {
		retry = c.eng.Now() + 1
	}
	c.eng.AtFunc(retry, retryIssueFetch, c, nil, e.lineAddr, 0)
}

// retryIssueFetch re-attempts a pushed-back downstream fetch, if the
// MSHR entry still exists.
func retryIssueFetch(_ uint64, o1, _ any, la, _ uint64) {
	c := o1.(*Cache)
	if idx := c.findMSHR(la); idx >= 0 {
		c.issueFetch(idx)
	}
}

// callDoneHit completes a hit: o1 is the Access.Done sink.
func callDoneHit(now uint64, o1, _ any, _, _ uint64) {
	o1.(DoneSink).AccessDone(now, true)
}

// FillLine implements FillSink: it receives line data from
// downstream, installs it (or redirects it to a mechanism buffer) and
// wakes the waiting targets.
//
//ml:hotpath
func (c *Cache) FillLine(lineAddr, now uint64) {
	idx := c.findMSHR(lineAddr)
	if idx < 0 {
		return // entry was squashed (cannot happen in current flows)
	}
	e := &c.mshrs[idx]
	c.stats.Fills++
	c.reservePort(now, true)

	if e.redirect != nil {
		e.redirect.RedirectFill(lineAddr, now)
	} else {
		c.install(lineAddr, e.fillDirty, e.prefetch, now)
		for _, f := range c.fillObs {
			f.OnFill(lineAddr, e.prefetch, now)
		}
	}
	for _, t := range e.targets {
		t.AccessDone(now, false)
	}
	e.clear()
	c.mshrsIn--
	c.drainPrefetch()
}

// install places a line into the array, evicting the LRU victim of
// its set (invalid ways first).
func (c *Cache) install(lineAddr uint64, dirty, prefetched bool, now uint64) {
	si := c.setIndex(lineAddr)
	set := c.set(si)
	victim := 0
	for i := range set {
		if !set[i].Valid {
			victim = i
			break
		}
		if set[i].LastUse < set[victim].LastUse {
			victim = i
		}
	}
	v := &set[victim]
	if v.Valid {
		vAddr := v.Tag << c.lineShift
		c.stats.Evictions++
		if c.checker != nil {
			c.checker.noteEvict(vAddr, v.Dirty)
		}
		for _, o := range c.evictObs {
			o.OnEvict(vAddr, v.Dirty, now)
		}
		if v.Dirty {
			c.stats.WriteBack++
			c.writeBack(vAddr)
		}
	}
	c.useTick++
	*v = LineState{Tag: c.tag(lineAddr), Valid: true, Dirty: dirty, Prefetched: prefetched, LastUse: c.useTick}
	c.noteLRU(si)
	if c.checker != nil {
		c.checker.noteFill(lineAddr, dirty)
	}
}

// writeBack pushes a dirty line downstream with retries.
func (c *Cache) writeBack(lineAddr uint64) {
	if c.backend.WriteBack(lineAddr) {
		return
	}
	retry := c.backend.FreeAtHint()
	if retry <= c.eng.Now() {
		retry = c.eng.Now() + 1
	}
	c.eng.AtFunc(retry, retryWriteBack, c, nil, lineAddr, 0)
}

func retryWriteBack(_ uint64, o1, _ any, lineAddr, _ uint64) {
	o1.(*Cache).writeBack(lineAddr)
}

// InstallDirect lets mechanisms (victim caches on swap, prefetch
// buffers on promote) place a line into the array outside the fill
// path.
func (c *Cache) InstallDirect(lineAddr uint64, dirty bool, now uint64) {
	c.install(c.LineAddr(lineAddr), dirty, false, now)
}

// MarkDirty sets the dirty bit of a resident line. Victim caches use
// it to restore dirtiness when a swapped-in line had been modified.
func (c *Cache) MarkDirty(addr uint64) {
	la := c.LineAddr(addr)
	si := c.setIndex(la)
	set := c.set(si)
	t := c.tag(la)
	for i := range set {
		if set[i].Valid && set[i].Tag == t {
			set[i].Dirty = true
			c.noteLRU(si)
			if c.checker != nil {
				c.checker.noteStore(la)
			}
			return
		}
	}
}

// WriteBackLine pushes a line-sized write downstream on behalf of a
// mechanism (a victim cache retiring a dirty victim).
func (c *Cache) WriteBackLine(addr uint64) {
	c.writeBack(c.LineAddr(addr))
}

// TrackDirtyLRU arms the dirty-LRU index DrainDirtyLRU walks. A drain
// client (eager writeback) calls it once at construction.
func (c *Cache) TrackDirtyLRU() {
	c.dirtyLRU = make([]uint64, (c.numSets()+63)/64)
	c.rebuildDirtyLRU()
}

// lruWay returns the way holding the least recently used valid line
// of set, or -1 when the set holds no valid line.
func lruWay(set []LineState) int {
	lru := -1
	for w := range set {
		if !set[w].Valid {
			continue
		}
		if lru < 0 || set[w].LastUse < set[lru].LastUse {
			lru = w
		}
	}
	return lru
}

// noteLRU updates the dirty-LRU index after a line of set si changed.
// Caches nobody drains pay one nil check.
func (c *Cache) noteLRU(si uint64) {
	if c.dirtyLRU != nil {
		c.recomputeLRU(si)
	}
}

// recomputeLRU sets set si's dirty-LRU bit from the set's lines.
func (c *Cache) recomputeLRU(si uint64) {
	set := c.set(si)
	bit := uint64(1) << (si & 63)
	if lru := lruWay(set); lru >= 0 && set[lru].Dirty {
		c.dirtyLRU[si>>6] |= bit
	} else {
		c.dirtyLRU[si>>6] &^= bit
	}
}

// rebuildDirtyLRU recomputes every set's dirty-LRU bit.
func (c *Cache) rebuildDirtyLRU() {
	if c.dirtyLRU == nil {
		return
	}
	for si := range c.numSets() {
		c.recomputeLRU(uint64(si))
	}
}

// DrainDirtyLRU finds up to max dirty lines that are the LRU of
// their set — the lines next in line to cause an eviction write-back
// burst — clears their dirty bits and returns their addresses, in set
// order. The caller is responsible for actually writing the data back
// (eager writeback uses WriteBackLine when the bus is idle). The
// result is a reused buffer, valid until the next drain. Cost is one
// word test per 64 sets plus the batch: the walk visits only the
// sets the dirty-LRU index marks. The cache must be armed with
// TrackDirtyLRU.
//
//ml:hotpath
func (c *Cache) DrainDirtyLRU(max int) []uint64 {
	if c.dirtyLRU == nil {
		panic("cache: DrainDirtyLRU on a cache without TrackDirtyLRU")
	}
	out := c.drainBuf[:0]
	for wi := 0; wi < len(c.dirtyLRU) && len(out) < max; wi++ {
		for w := c.dirtyLRU[wi]; w != 0 && len(out) < max; w &= w - 1 {
			si := wi<<6 + bits.TrailingZeros64(w)
			set := c.set(uint64(si))
			lru := lruWay(set)
			set[lru].Dirty = false
			out = append(out, set[lru].Tag<<c.lineShift)
			c.dirtyLRU[wi] &^= w & -w
		}
	}
	c.drainBuf = out
	return out
}

// InvalidateLine drops a line if present, returning whether it was
// dirty. Mechanisms that steal lines (TKVC filtering) use this.
func (c *Cache) InvalidateLine(addr uint64) (present, dirty bool) {
	la := c.LineAddr(addr)
	si := c.setIndex(la)
	set := c.set(si)
	t := c.tag(la)
	for i := range set {
		if set[i].Valid && set[i].Tag == t {
			d := set[i].Dirty
			set[i] = LineState{}
			c.noteLRU(si)
			return true, d
		}
	}
	return false, false
}
