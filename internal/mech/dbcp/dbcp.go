// Package dbcp implements the Dead-Block Correlating Prefetcher
// (Lai, Fide & Falsafi, 2001) at the L1: every resident line carries
// a signature — a hash of the sequence of load/store instruction
// addresses that touched it. When a block dies (is evicted), the next
// miss address is correlated with the dead block's signature in a
// large (2 MB, 8-way) table guarded by two-bit confidence counters.
// When a live block's signature reaches a state previously seen to
// precede death, its correlated successor is prefetched into the L1.
//
// The package also reproduces the paper's Section 2.2 reverse-
// engineering case study: the authors' *initial* DBCP implementation
// was off by 38% on average because of three mistakes the article's
// text did not prevent — a half-size correlation table (mis-read
// entry count), missing pre-hashing of instruction addresses before
// XOR folding (aliasing), and missing confidence-counter decrement
// (table pollution). Constructing with Params{"buggy":1} rebuilds
// exactly that initial version for the Figure 3 experiment.
package dbcp

import (
	"microlib/internal/cache"
	"microlib/internal/core"
)

type corrEntry struct {
	key    uint64
	target uint64
	conf   int8
}

// DBCP is the dead-block correlating prefetcher.
type DBCP struct {
	l1 *cache.Cache

	// live per-resident-line signatures (the "history" of Table 3,
	// capped at historyCap entries).
	live       map[uint64]uint32
	historyCap int

	table []corrEntry
	ways  int
	sets  int
	buggy bool

	// pending dead-block key awaiting the next miss address.
	pendingKey uint64
	havePend   bool

	reads, writes uint64
	issued        uint64
	predictions   uint64
}

// Config sizes the mechanism.
type Config struct {
	TableBytes int // correlation table (2 MB in Table 3)
	Ways       int // 8-way
	HistoryCap int // 1K live-signature entries
	Buggy      bool
}

// New builds a DBCP attached to l1.
func New(l1 *cache.Cache, cfg Config) *DBCP {
	return NewRecycling(l1, cfg, Storage{})
}

// Storage is a DBCP's correlation table, detached by TakeStorage so
// that a later DBCP can reuse it (NewRecycling) while nothing else of
// the old one stays reachable.
type Storage struct{ table []corrEntry }

// TakeStorage implements core.Recycler: it detaches the correlation
// table. The DBCP must not be used again.
func (d *DBCP) TakeStorage() any {
	s := Storage{d.table}
	d.table = nil
	return s
}

// NewRecycling is New, except that the correlation table is spare's
// when spare holds exactly as many entries as cfg needs (the zero
// Storage never does). The table is cleared, so the DBCP starts
// exactly as a fresh one. Every other field is built fresh.
func NewRecycling(l1 *cache.Cache, cfg Config, spare Storage) *DBCP {
	if cfg.TableBytes == 0 {
		cfg.TableBytes = 2 << 20
	}
	if cfg.Ways == 0 {
		cfg.Ways = 8
	}
	if cfg.HistoryCap == 0 {
		cfg.HistoryCap = 2048
	}
	if cfg.Buggy {
		// Mistake 1: half the correct number of entries.
		cfg.TableBytes /= 2
	}
	const entryBytes = 24
	entries := cfg.TableBytes / entryBytes
	sets := 1
	for sets*2*cfg.Ways <= entries {
		sets <<= 1
	}
	table := spare.table
	if len(table) == sets*cfg.Ways {
		clear(table)
	} else {
		table = make([]corrEntry, sets*cfg.Ways)
	}
	return &DBCP{
		l1:         l1,
		live:       make(map[uint64]uint32, cfg.HistoryCap),
		historyCap: cfg.HistoryCap,
		table:      table,
		ways:       cfg.Ways,
		sets:       sets,
		buggy:      cfg.Buggy,
	}
}

func init() {
	core.Register(core.Description{
		Name: "DBCP", Level: "L1", Year: 2001,
		Summary: "Dead-Block Correlating Prefetcher: signature-indexed dead-block and successor prediction",
		Params:  []string{"tableBytes", "ways", "history", "buggy", "queue"},
	}, func(env *core.Env, p core.Params) (core.Mechanism, error) {
		spare, _ := env.Spare.(Storage)
		d := NewRecycling(env.L1D, Config{
			TableBytes: p.Get("tableBytes", 2<<20),
			Ways:       p.Get("ways", 8),
			HistoryCap: p.Get("history", 2048),
			Buggy:      p.Get("buggy", 0) != 0,
		}, spare)
		env.L1D.SetPrefetchQueueCap(p.Get("queue", 128))
		env.L1D.Attach(d)
		return d, nil
	})
}

// Name implements core.Mechanism.
func (d *DBCP) Name() string { return "DBCP" }

// prehash mixes an instruction address before it is folded into a
// signature. The original article omitted this step, and the paper
// found the omission caused destructive aliasing — the buggy mode
// folds the raw PC instead.
func (d *DBCP) prehash(pc uint64) uint32 {
	if d.buggy {
		return uint32(pc)
	}
	x := pc
	x ^= x >> 17
	x *= 0xed5ad4bb
	x ^= x >> 11
	return uint32(x)
}

func (d *DBCP) key(lineAddr uint64, sig uint32) uint64 {
	return lineAddr ^ (uint64(sig) << 13)
}

// OnAccess implements cache.AccessObserver: extend the line's
// signature with the accessing PC, then consult the correlation
// table — a matching high-confidence entry means the block's history
// says it is about to die and names the block that will be needed
// next.
func (d *DBCP) OnAccess(ev cache.AccessEvent) {
	if ev.PC == 0 {
		return
	}
	sig := d.live[ev.LineAddr]*33 ^ d.prehash(ev.PC)
	if len(d.live) >= d.historyCap {
		// History full: drop an arbitrary entry (hardware would have
		// a finite structure with replacement).
		for k := range d.live {
			delete(d.live, k)
			break
		}
	}
	d.live[ev.LineAddr] = sig

	k := d.key(ev.LineAddr, sig)
	d.reads++
	if e := d.lookup(k); e != nil && e.conf >= 1 {
		d.predictions++
		d.issued++
		d.l1.Prefetch(e.target)
	}
}

// OnEvict implements cache.EvictObserver: the block is dead; its
// final signature is the correlation key, bound to the next miss.
func (d *DBCP) OnEvict(lineAddr uint64, dirty bool, now uint64) {
	sig, ok := d.live[lineAddr]
	if !ok {
		return
	}
	delete(d.live, lineAddr)
	d.pendingKey = d.key(lineAddr, sig)
	d.havePend = true
}

// OnMiss implements cache.MissObserver: bind the pending dead-block
// key to this miss address.
func (d *DBCP) OnMiss(lineAddr, pc uint64, now uint64) {
	if !d.havePend {
		return
	}
	d.havePend = false
	d.learn(d.pendingKey, lineAddr)
}

func (d *DBCP) setOf(k uint64) []corrEntry {
	s := int(k>>3) & (d.sets - 1)
	return d.table[s*d.ways : (s+1)*d.ways]
}

func (d *DBCP) lookup(k uint64) *corrEntry {
	set := d.setOf(k)
	for i := range set {
		if set[i].key == k {
			return &set[i]
		}
	}
	return nil
}

func (d *DBCP) learn(k, target uint64) {
	d.writes++
	set := d.setOf(k)
	var victim *corrEntry
	for i := range set {
		e := &set[i]
		if e.key == k {
			switch {
			case e.target == target:
				if e.conf < 3 {
					e.conf++
				}
			case d.buggy:
				// Mistake 3: the initial implementation never
				// decreased the confidence of signatures that stopped
				// inducing the recorded miss, so stale entries stuck
				// around, polluting the table and blocking updates.
			default:
				e.conf--
				if e.conf <= 0 {
					e.target = target
					e.conf = 1
				}
			}
			return
		}
		if victim == nil || e.conf < victim.conf {
			victim = e
		}
	}
	*victim = corrEntry{key: k, target: target, conf: 1}
}

// Hardware implements core.CostModeler: the 2 MB correlation table
// dominates (Figure 5's second-tallest bars).
func (d *DBCP) Hardware() []core.HWTable {
	return []core.HWTable{
		{Label: "dbcp-table", Bytes: len(d.table) * 24, Assoc: d.ways, Ports: 1,
			Reads: d.reads, Writes: d.writes},
		{Label: "dbcp-history", Bytes: d.historyCap * 12, Assoc: 0, Ports: 1,
			Reads: d.reads, Writes: d.reads},
	}
}

// Predictions reports high-confidence table hits (tests).
func (d *DBCP) Predictions() uint64 { return d.predictions }
