package cache

// AccessEvent describes one demand access outcome, delivered to
// mechanism observers after the lookup decision.
type AccessEvent struct {
	Addr     uint64 // full effective address
	LineAddr uint64 // line-aligned address
	PC       uint64 // requesting instruction PC (0 for refills)
	Write    bool
	Hit      bool
	// PrefetchedLine is true when the access hit a line that was
	// brought in by a prefetch and had not yet been demanded
	// (tagged-prefetching's trigger condition).
	PrefetchedLine bool
	Now            uint64
}

// AccessObserver sees every demand access after the hit/miss
// decision. Prefetch-triggering mechanisms (TP, SP, TCP, GHB, TK)
// implement this.
type AccessObserver interface {
	OnAccess(ev AccessEvent)
}

// AuxProber is consulted on a demand miss before the miss is sent
// downstream. Returning true means the auxiliary structure (victim
// cache, FVC, prefetch buffer) holds the line: the cache installs
// the line locally and completes the access without a downstream
// fetch. The prober must remove the line from its own storage.
//
// A primary miss refused for want of an MSHR has already probed, so a
// core stalled on it probes again every cycle it retries. Across such
// a run of quiet cycles the answer cannot change: prober contents
// change only through fills, installs and accepted accesses, and a
// quiet cycle has none. RepeatMisses(n) charges n such repeats in
// bulk and must leave the prober exactly as n more ProbeAux calls
// returning false would.
type AuxProber interface {
	ProbeAux(lineAddr uint64, now uint64) bool
	RepeatMisses(n uint64)
}

// EvictObserver sees every eviction of a valid line (victim caches
// and dead-block predictors implement this).
type EvictObserver interface {
	OnEvict(lineAddr uint64, dirty bool, now uint64)
}

// FillObserver sees every line installed into the cache, demand or
// prefetch (content-directed prefetching scans fills).
type FillObserver interface {
	OnFill(lineAddr uint64, prefetch bool, now uint64)
}

// MissObserver sees demand misses that actually go downstream (after
// aux probing), with the PC that caused them. Miss-address-correlating
// prefetchers (Markov, DBCP, TCP, GHB) key off this stream.
type MissObserver interface {
	OnMiss(lineAddr uint64, pc uint64, now uint64)
}

// Attach registers a mechanism with the cache. The mechanism may
// implement any subset of the observer interfaces; Attach wires up
// whichever it finds. Attach panics if the value implements none,
// which almost certainly indicates a mis-built mechanism.
func (c *Cache) Attach(m any) {
	found := false
	if o, ok := m.(AccessObserver); ok {
		c.accessObs = append(c.accessObs, o)
		found = true
	}
	if p, ok := m.(AuxProber); ok {
		c.probers = append(c.probers, p)
		found = true
	}
	if e, ok := m.(EvictObserver); ok {
		c.evictObs = append(c.evictObs, e)
		found = true
	}
	if f, ok := m.(FillObserver); ok {
		c.fillObs = append(c.fillObs, f)
		found = true
	}
	if mo, ok := m.(MissObserver); ok {
		c.missObs = append(c.missObs, mo)
		found = true
	}
	if !found {
		panic("cache: Attach called with a value implementing no hook interface")
	}
}
