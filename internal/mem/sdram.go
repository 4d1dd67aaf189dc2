package mem

import (
	"fmt"
	"strings"

	"microlib/internal/sim"
)

// SchedulePolicy selects which queued request the controller issues
// next.
type SchedulePolicy int

const (
	// FCFS issues requests strictly in arrival order.
	FCFS SchedulePolicy = iota
	// RowHitFirst prefers the oldest request whose target row is
	// already open (the scheme retained by the paper, after Green's
	// EDN article, because it "significantly reduces conflicts in
	// row buffers").
	RowHitFirst
)

// Name returns the policy's registry name (the "hier.sdram.policy"
// config-field value).
func (p SchedulePolicy) Name() string {
	if p == FCFS {
		return "fcfs"
	}
	return "row-hit-first"
}

// PolicyNames returns the valid schedule-policy names.
func PolicyNames() []string { return []string{"fcfs", "row-hit-first"} }

// ParsePolicy resolves a schedule-policy name.
func ParsePolicy(name string) (SchedulePolicy, error) {
	switch name {
	case "fcfs":
		return FCFS, nil
	case "row-hit-first":
		return RowHitFirst, nil
	}
	return 0, fmt.Errorf("mem: unknown schedule policy %q (have %s)", name, strings.Join(PolicyNames(), ", "))
}

// Interleave selects how line addresses map to (bank, row, column).
type Interleave int

const (
	// LinearMap places bank bits directly above the column bits.
	LinearMap Interleave = iota
	// PermuteMap XORs the bank index with low row bits
	// (permutation-based interleaving after Zhang et al., MICRO'00),
	// spreading conflicting rows across banks.
	PermuteMap
)

// Name returns the interleave's registry name (the
// "hier.sdram.interleave" config-field value).
func (iv Interleave) Name() string {
	if iv == LinearMap {
		return "linear"
	}
	return "permute"
}

// InterleaveNames returns the valid interleave names.
func InterleaveNames() []string { return []string{"linear", "permute"} }

// ParseInterleave resolves an interleave name.
func ParseInterleave(name string) (Interleave, error) {
	switch name {
	case "linear":
		return LinearMap, nil
	case "permute":
		return PermuteMap, nil
	}
	return 0, fmt.Errorf("mem: unknown interleave %q (have %s)", name, strings.Join(InterleaveNames(), ", "))
}

// SDRAMConfig carries the Table 1 SDRAM parameters. All timings are
// in CPU cycles (the paper quotes them that way for a 2 GHz core).
type SDRAMConfig struct {
	Banks      int    // 4
	Rows       int    // 8192
	Columns    int    // 1024 (of 8-byte words)
	RASToRAS   uint64 // 20  - min cycles between ACTs to distinct banks
	RASActive  uint64 // 80  - min open time before precharge (tRAS)
	RASToCAS   uint64 // 30  - ACT to column command (tRCD)
	CASLatency uint64 // 30  - column command to first data
	RASPre     uint64 // 30  - precharge time (tRP)
	RASCycle   uint64 // 110 - min time between ACTs to the same bank (tRC)
	QueueSize  int    // 32 controller queue entries
	// BurstCycles is the data-bus occupancy of one line transfer in
	// CPU cycles (64-byte line over a 64-byte 400 MHz bus = 1 bus
	// cycle = 5 CPU cycles at 2 GHz).
	BurstCycles uint64
	Policy      SchedulePolicy
	Interleave  Interleave
	LineSize    uint64 // transfer granularity, bytes
}

// DefaultSDRAMConfig returns the paper's Table 1 SDRAM (about 170
// cycles average load-to-use latency in practice).
//
// Table 1 lists 4 banks per device, but also a 2 GB capacity, which
// a single 4-bank 256 MB device cannot provide; the controller
// therefore sees two ranks — 8 independently schedulable banks.
func DefaultSDRAMConfig() SDRAMConfig {
	return SDRAMConfig{
		Banks:       8,
		Rows:        8192,
		Columns:     1024,
		RASToRAS:    20,
		RASActive:   80,
		RASToCAS:    30,
		CASLatency:  30,
		RASPre:      30,
		RASCycle:    110,
		QueueSize:   32,
		BurstCycles: 5,
		Policy:      RowHitFirst,
		Interleave:  PermuteMap,
		LineSize:    64,
	}
}

// Check reports a structurally impossible SDRAM configuration as an
// error. The model is built at simulation start (NewSDRAM panics on a
// subset of these); validated entry points catch the problem at plan
// time instead.
func (c SDRAMConfig) Check() error {
	switch {
	case c.Banks <= 0:
		return fmt.Errorf("mem: sdram needs at least one bank")
	case c.Rows <= 0 || c.Columns <= 0:
		return fmt.Errorf("mem: sdram rows and columns must be positive")
	case c.QueueSize <= 0:
		return fmt.Errorf("mem: sdram controller queue must hold at least one request")
	case c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("mem: sdram line size must be a positive power of two")
	case c.BurstCycles == 0:
		return fmt.Errorf("mem: sdram burst must occupy at least one cycle")
	case c.Policy != FCFS && c.Policy != RowHitFirst:
		return fmt.Errorf("mem: unknown schedule policy %d", c.Policy)
	case c.Interleave != LinearMap && c.Interleave != PermuteMap:
		return fmt.Errorf("mem: unknown interleave %d", c.Interleave)
	}
	return nil
}

// ScaledSDRAMConfig returns the paper's "SDRAM exhibiting an average
// 70-cycle latency": the Table 1 device with its timings scaled down
// (especially CAS latency, reduced from 6 to 2 memory cycles, i.e.
// 30 to 10 CPU cycles) so the average latency matches the
// SimpleScalar constant model.
func ScaledSDRAMConfig() SDRAMConfig {
	c := DefaultSDRAMConfig()
	c.CASLatency = 10
	c.RASToCAS = 10
	c.RASPre = 10
	c.RASActive = 30
	c.RASCycle = 40
	c.RASToRAS = 8
	return c
}

type sdramReq struct {
	req     *Req
	arrival uint64
	bank    int
	row     int64
}

// SDRAM is the detailed memory model: open-page policy, per-bank row
// buffers, a finite controller queue and a scheduling policy. Command
// issue overlaps across banks; the data bus serializes transfers.
type SDRAM struct {
	cfg   SDRAMConfig
	eng   *sim.Engine
	banks []BankState
	queue []sdramReq
	stats Stats

	dataBusFreeAt uint64
	lastActAt     uint64 // for tRRD across banks
	anyActed      bool
	kickPlanned   bool
	inflight      int // requests issued to banks, not yet transferred
	name          string
}

// NewSDRAM builds an SDRAM model on the engine.
func NewSDRAM(eng *sim.Engine, cfg SDRAMConfig) *SDRAM {
	if cfg.Banks <= 0 || cfg.QueueSize <= 0 || cfg.LineSize == 0 {
		panic("mem: invalid SDRAM config")
	}
	s := &SDRAM{cfg: cfg, eng: eng, banks: make([]BankState, cfg.Banks), name: "sdram"}
	for i := range s.banks {
		s.banks[i].OpenRow = -1
	}
	return s
}

// Name implements Model.
func (s *SDRAM) Name() string { return s.name }

// SetName overrides the report name (used for the scaled variant).
func (s *SDRAM) SetName(n string) { s.name = n }

// Config returns the active configuration.
func (s *SDRAM) Config() SDRAMConfig { return s.cfg }

// mapAddr decomposes a line address into bank and row.
func (s *SDRAM) mapAddr(addr uint64) (bankIdx int, row int64) {
	line := addr / s.cfg.LineSize
	// One row holds Columns 8-byte words; in lines:
	rowBytes := uint64(s.cfg.Columns) * 8
	linesPerRow := rowBytes / s.cfg.LineSize
	if linesPerRow == 0 {
		linesPerRow = 1
	}
	rowLinear := line / linesPerRow
	b := int(rowLinear % uint64(s.cfg.Banks))
	r := int64((rowLinear / uint64(s.cfg.Banks)) % uint64(s.cfg.Rows))
	if s.cfg.Interleave == PermuteMap {
		b = int((uint64(b) ^ (uint64(r) & (uint64(s.cfg.Banks) - 1))) % uint64(s.cfg.Banks))
	}
	return b, r
}

// Enqueue implements Model. Prefetch requests are throttled: they are
// refused once the controller queue is a quarter full, reserving
// capacity for demand misses (prefetches are retried from the cache
// request queues, so refusal only delays them).
//
//ml:hotpath
func (s *SDRAM) Enqueue(r *Req) bool {
	limit := s.cfg.QueueSize
	if r.Prefetch {
		limit = s.cfg.QueueSize / 8
		if limit == 0 {
			limit = 1
		}
	}
	if len(s.queue) >= limit {
		s.stats.QueueFullStalls++
		return false
	}
	b, row := s.mapAddr(r.Addr)
	s.queue = append(s.queue, sdramReq{req: r, arrival: s.eng.Now(), bank: b, row: row})
	s.kick()
	return true
}

// pick selects the index of the next request to issue per policy, or
// -1 if the queue is empty. Demand requests always outrank
// prefetches; within each class the scheduling policy applies.
func (s *SDRAM) pick() int {
	if len(s.queue) == 0 {
		return -1
	}
	for _, wantPrefetch := range [2]bool{false, true} {
		if s.cfg.Policy == RowHitFirst {
			for i := range s.queue {
				q := &s.queue[i]
				if q.req.Prefetch == wantPrefetch && s.banks[q.bank].OpenRow == q.row {
					return i
				}
			}
		}
		for i := range s.queue {
			if s.queue[i].req.Prefetch == wantPrefetch {
				return i
			}
		}
	}
	return 0
}

// kick issues requests while bank-level concurrency allows — at most
// one outstanding request per bank's worth of parallelism. Extra
// requests stay in the queue, which is what lets the scheduling
// policy (row-hit-first, demand-before-prefetch) actually reorder
// them, while the in-flight window preserves command pipelining
// across banks.
func (s *SDRAM) kick() {
	now := s.eng.Now()
	for {
		if s.inflight >= s.cfg.Banks {
			return // completions re-kick
		}
		i := s.pick()
		if i < 0 {
			return
		}
		q := s.queue[i]
		b := &s.banks[q.bank]

		start := now
		if b.ReadyAt > start {
			start = b.ReadyAt
		}

		var dataAt uint64
		switch {
		case b.OpenRow == q.row:
			// Row hit: column access only.
			s.stats.RowHits++
			dataAt = start + s.cfg.CASLatency
		case b.OpenRow == -1:
			// Row closed: activate then column access.
			s.stats.RowMisses++
			actAt := s.actTime(start, b)
			dataAt = actAt + s.cfg.RASToCAS + s.cfg.CASLatency
			b.OpenRow = q.row
			b.LastActAt = actAt
			b.HasActed = true
			s.lastActAt = actAt
			s.anyActed = true
			s.stats.Activates++
		default:
			// Row conflict: precharge, activate, column access.
			s.stats.RowConflicts++
			s.stats.Precharges++
			preAt := start
			// Honour tRAS: the open row must have been active long
			// enough before we may precharge.
			if b.HasActed && b.LastActAt+s.cfg.RASActive > preAt {
				preAt = b.LastActAt + s.cfg.RASActive
			}
			actAt := s.actTime(preAt+s.cfg.RASPre, b)
			dataAt = actAt + s.cfg.RASToCAS + s.cfg.CASLatency
			b.OpenRow = q.row
			b.LastActAt = actAt
			b.HasActed = true
			s.lastActAt = actAt
			s.anyActed = true
			s.stats.Activates++
		}

		xferStart := dataAt
		if s.dataBusFreeAt > xferStart {
			xferStart = s.dataBusFreeAt
		}
		done := xferStart + s.cfg.BurstCycles
		s.dataBusFreeAt = done
		// Column commands pipeline: the next CAS to this bank may
		// issue while this burst drains, so successive row hits
		// stream at data-bus rate, not at CAS-latency rate.
		if done > s.cfg.CASLatency {
			b.ReadyAt = done - s.cfg.CASLatency
		} else {
			b.ReadyAt = done
		}

		// Account and complete.
		if q.req.Write {
			s.stats.Writes++
		} else {
			s.stats.Reads++
			s.stats.TotalReadLatency += done - q.arrival
		}
		if q.req.Prefetch {
			s.stats.Prefetches++
		}
		s.inflight++
		s.eng.AtFunc(done, sdramXferDone, s, q.req.Done, 0, 0)

		// Remove from queue preserving order; clear the vacated tail
		// slot so the backing array does not pin the retired request.
		last := len(s.queue) - 1
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		s.queue[:last+1][last] = sdramReq{}
	}
}

// actTime returns the earliest legal ACT time at or after t for bank
// b, honouring tRC on the same bank and tRRD across banks.
func (s *SDRAM) actTime(t uint64, b *BankState) uint64 {
	if b.HasActed && b.LastActAt+s.cfg.RASCycle > t {
		t = b.LastActAt + s.cfg.RASCycle
	}
	if s.anyActed && s.lastActAt+s.cfg.RASToRAS > t {
		t = s.lastActAt + s.cfg.RASToRAS
	}
	return t
}

func (s *SDRAM) serviceEstimate() uint64 {
	return s.cfg.RASPre + s.cfg.RASToCAS + s.cfg.CASLatency + s.cfg.BurstCycles
}

// sdramXferDone fires at burst completion: o1 is the controller, o2
// the request's Done sink (nil for writes nobody waits on).
func sdramXferDone(now uint64, o1, o2 any, _, _ uint64) {
	s := o1.(*SDRAM)
	s.inflight--
	if cb, _ := o2.(DoneSink); cb != nil {
		cb.ReqDone(now)
	}
	s.kick()
}

func (s *SDRAM) scheduleKick(at uint64) {
	if s.kickPlanned {
		return
	}
	s.kickPlanned = true
	if at < s.eng.Now() {
		at = s.eng.Now()
	}
	s.eng.AtFunc(at, sdramFireKick, s, nil, 0, 0)
}

func sdramFireKick(_ uint64, o1, _ any, _, _ uint64) {
	s := o1.(*SDRAM)
	s.kickPlanned = false
	s.kick()
}

// Pending implements Model.
func (s *SDRAM) Pending() int { return len(s.queue) }

// Stats implements Model.
func (s *SDRAM) Stats() Stats { return s.stats }
