// Package tk implements the Timekeeping mechanisms of Hu, Kaxiras &
// Martonosi (2002) at the L1.
//
// TK (the timekeeping prefetcher) tracks per-line access times with
// coarse decay counters (refresh interval 512 cycles, death threshold
// 1023 cycles, Table 3): a line untouched for longer than the
// threshold is predicted dead, and an 8 KB address-correlation table
// — which learns, at every fill, "line V is usually replaced by line
// M" — supplies the replacement to prefetch in its place.
//
// TKVC applies the same timekeeping reuse prediction as a filter in
// front of a victim cache: only victims whose dead time was short
// (conflict evictions, likely to be re-referenced) are worth keeping.
package tk

import (
	"microlib/internal/cache"
	"microlib/internal/core"
	"microlib/internal/mech/vc"
	"microlib/internal/sim"
)

// corrInfo is one address-correlation entry with a confidence
// counter: only pairs observed repeatedly are trusted for prefetch,
// which keeps streaming noise out of the L1.
type corrInfo struct {
	repl uint64
	conf int8
}

// TK is the timekeeping prefetcher.
type TK struct {
	eng *sim.Engine
	l1  *cache.Cache

	refresh   uint64
	threshold uint64

	lastTouch map[uint64]uint64   // resident line -> last access cycle
	corr      map[uint64]corrInfo // victim line -> observed replacement
	corrCap   int

	pendingVictim uint64
	haveVictim    bool

	reads, writes uint64
	issued        uint64
	scans         uint64
}

// New builds a TK prefetcher on l1.
func New(eng *sim.Engine, l1 *cache.Cache, refresh, threshold uint64, corrBytes int) *TK {
	t := &TK{
		eng:       eng,
		l1:        l1,
		refresh:   refresh,
		threshold: threshold,
		lastTouch: make(map[uint64]uint64),
		corr:      make(map[uint64]corrInfo),
		corrCap:   corrBytes / 16,
	}
	t.armScan()
	return t
}

func init() {
	core.Register(core.Description{
		Name: "TK", Level: "L1", Year: 2002,
		Summary: "Timekeeping prefetcher: decay-based dead-block detection with replacement correlation",
		Params:  []string{"refresh", "threshold", "corrBytes", "queue"},
	}, func(env *core.Env, p core.Params) (core.Mechanism, error) {
		t := New(env.Eng, env.L1D,
			uint64(p.Get("refresh", 512)),
			uint64(p.Get("threshold", 1023)),
			p.Get("corrBytes", 8<<10))
		env.L1D.SetPrefetchQueueCap(p.Get("queue", 128))
		env.L1D.Attach(t)
		return t, nil
	})
	core.Register(core.Description{
		Name: "TKVC", Level: "L1", Year: 2002,
		Summary: "Timekeeping Victim Cache: reuse-predicted filtering of victim-cache insertions",
		Params:  []string{"bytes", "threshold"},
	}, func(env *core.Env, p core.Params) (core.Mechanism, error) {
		t := NewTKVC(env.Eng, env.L1D,
			p.Get("bytes", 512),
			uint64(p.Get("threshold", 1023)))
		env.L1D.Attach(t)
		return t, nil
	})
}

// Name implements core.Mechanism.
func (t *TK) Name() string { return "TK" }

// OnAccess implements cache.AccessObserver.
func (t *TK) OnAccess(ev cache.AccessEvent) {
	if ev.Hit {
		t.lastTouch[ev.LineAddr] = ev.Now
	}
}

// OnEvict implements cache.EvictObserver: remember the victim so the
// following fill can record the (victim -> replacement) pair.
func (t *TK) OnEvict(lineAddr uint64, dirty bool, now uint64) {
	delete(t.lastTouch, lineAddr)
	t.pendingVictim = lineAddr
	t.haveVictim = true
}

// OnFill implements cache.FillObserver.
func (t *TK) OnFill(lineAddr uint64, prefetch bool, now uint64) {
	t.lastTouch[lineAddr] = now
	if t.haveVictim && !prefetch {
		t.haveVictim = false
		t.learn(t.pendingVictim, lineAddr)
	}
}

func (t *TK) learn(victim, repl uint64) {
	t.writes++
	if e, ok := t.corr[victim]; ok {
		if e.repl == repl {
			if e.conf < 3 {
				e.conf++
			}
		} else {
			e.conf--
			if e.conf <= 0 {
				e = corrInfo{repl: repl, conf: 1}
			}
		}
		t.corr[victim] = e
		return
	}
	if len(t.corr) >= t.corrCap {
		for k := range t.corr {
			delete(t.corr, k)
			break
		}
	}
	t.corr[victim] = corrInfo{repl: repl, conf: 1}
}

// armScan schedules the periodic decay sweep. The timer is a packed
// static-Func event (not a closure) so the pending tick serializes
// with the rest of the calendar in warm-state checkpoints.
func (t *TK) armScan() {
	t.eng.AfterFunc(t.refresh, tkFireScan, t, nil, 0, 0)
}

// tkFireScan is the decay-sweep trampoline: o1 is the TK instance.
func tkFireScan(now uint64, o1, _ any, _, _ uint64) {
	t := o1.(*TK)
	t.scan(now)
	t.armScan()
}

// scan finds lines whose decay counters have saturated (dead) and
// prefetches their predicted replacements — the "timely" part of
// timekeeping: the prefetch lands before the demand miss would have.
func (t *TK) scan(now uint64) {
	t.scans++
	for la, last := range t.lastTouch {
		if now-last <= t.threshold {
			continue
		}
		delete(t.lastTouch, la) // consider it dead once
		t.reads++
		if e, ok := t.corr[la]; ok && e.conf >= 3 {
			t.issued++
			t.l1.Prefetch(e.repl)
		}
	}
}

// Hardware implements core.CostModeler: decay counters per L1 line
// plus the 8 KB correlation table.
func (t *TK) Hardware() []core.HWTable {
	lines := t.l1.Config().NumLines()
	return []core.HWTable{
		{Label: "tk-decay", Bytes: lines, Assoc: 1, Ports: 1,
			Reads: t.scans * uint64(lines) / 8, Writes: t.writes},
		{Label: "tk-corr", Bytes: t.corrCap * 16, Assoc: 8, Ports: 1,
			Reads: t.reads, Writes: t.writes},
	}
}

// Issued reports attempted prefetches (tests).
func (t *TK) Issued() uint64 { return t.issued }

// TKVC is the timekeeping-filtered victim cache.
type TKVC struct {
	*vc.VC
	l1        *cache.Cache
	threshold uint64
	lastTouch map[uint64]uint64

	Filtered uint64 // victims predicted dead and not inserted
}

// NewTKVC builds the filtered victim cache.
func NewTKVC(eng *sim.Engine, l1 *cache.Cache, bytes int, threshold uint64) *TKVC {
	return &TKVC{
		VC:        vc.NewVC(eng, l1, bytes),
		l1:        l1,
		threshold: threshold,
		lastTouch: make(map[uint64]uint64),
	}
}

// Name implements core.Mechanism.
func (t *TKVC) Name() string { return "TKVC" }

// OnAccess implements cache.AccessObserver.
func (t *TKVC) OnAccess(ev cache.AccessEvent) {
	t.lastTouch[ev.LineAddr] = ev.Now
}

// OnEvict implements cache.EvictObserver: only victims that died
// young (short dead time — conflict evictions) enter the victim
// cache; lines that sat idle past the threshold are truly dead and
// would only pollute it.
func (t *TKVC) OnEvict(lineAddr uint64, dirty bool, now uint64) {
	last, ok := t.lastTouch[lineAddr]
	delete(t.lastTouch, lineAddr)
	if ok && now-last > t.threshold {
		t.Filtered++
		if dirty {
			t.l1.WriteBackLine(lineAddr)
		}
		return
	}
	t.VC.Insert(lineAddr, dirty)
}

// Hardware implements core.CostModeler.
func (t *TKVC) Hardware() []core.HWTable {
	hw := t.VC.Hardware()
	lines := t.l1.Config().NumLines()
	hw = append(hw, core.HWTable{
		Label: "tkvc-decay", Bytes: lines, Assoc: 1, Ports: 1,
		Reads: t.VC.Inserts() + t.Filtered, Writes: t.VC.Inserts() + t.Filtered,
	})
	return hw
}
