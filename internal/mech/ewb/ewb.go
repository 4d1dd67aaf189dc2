// Package ewb implements Eager Writeback (Lee, Tyson & Farrens,
// MICRO 2000) at the L2: dirty lines that have reached the LRU
// position of their set are written back early, during idle bus
// cycles, so that later evictions are clean and do not serialize a
// write burst in front of demand misses.
//
// The paper surveyed this mechanism but could not evaluate it — "it
// is designed for and tested on memory-bandwidth bound programs which
// were not available" in their benchmark setup. This repository's
// synthetic workloads include bandwidth-bound programs (swim, lucas,
// mcf), so the mechanism is provided as a library extension; it is
// not part of the paper's Table 2 comparison set and the experiment
// drivers exclude it from the paper artifacts.
package ewb

import (
	"microlib/internal/cache"
	"microlib/internal/core"
	"microlib/internal/sim"
)

// EWB is the eager-writeback engine.
type EWB struct {
	eng      *sim.Engine
	l2       *cache.Cache
	interval uint64
	batch    int

	st State // all mutable state, snapshotted whole
}

// New builds an eager-writeback engine scanning every interval
// cycles, cleaning at most batch lines per scan.
func New(eng *sim.Engine, l2 *cache.Cache, interval uint64, batch int) *EWB {
	e := &EWB{eng: eng, l2: l2, interval: interval, batch: batch}
	l2.TrackDirtyLRU()
	e.arm()
	return e
}

func init() {
	core.Register(core.Description{
		Name: "EWB", Level: "L2", Year: 2000,
		Summary: "Eager Writeback: retire dirty LRU lines during idle bus cycles (library extension)",
		Params:  []string{"interval", "batch"},
	}, func(env *core.Env, p core.Params) (core.Mechanism, error) {
		e := New(env.Eng, env.L2,
			uint64(p.Get("interval", 256)),
			p.Get("batch", 4))
		return e, nil
	})
}

// Name implements core.Mechanism.
func (e *EWB) Name() string { return "EWB" }

// arm schedules the next idle-cycle sweep. The timer is a packed
// static-Func event (not a closure) so the pending tick serializes
// with the rest of the calendar in warm-state checkpoints.
func (e *EWB) arm() {
	e.eng.AfterFunc(e.interval, ewbFireScan, e, nil, 0, 0)
}

// ewbFireScan is the sweep trampoline: o1 is the EWB instance.
//
//ml:hotpath
func ewbFireScan(_ uint64, o1, _ any, _, _ uint64) {
	e := o1.(*EWB)
	e.scan()
	e.arm()
}

// scan retires a batch of dirty LRU lines. WriteBackLine routes
// through the normal backend path, so bus occupancy and controller
// queueing still apply — the win is in the timing, not in skipping
// the work.
func (e *EWB) scan() {
	e.st.Scans++
	for _, la := range e.l2.DrainDirtyLRU(e.batch) {
		e.st.Eager++
		e.l2.WriteBackLine(la)
	}
}

// Hardware implements core.CostModeler: eager writeback adds no
// storage beyond a small scan pointer; cost is effectively zero,
// which is its appeal.
func (e *EWB) Hardware() []core.HWTable {
	return []core.HWTable{{
		Label: "ewb-scanptr", Bytes: 8, Assoc: 1, Ports: 1,
		Reads: e.st.Scans, Writes: e.st.Eager,
	}}
}
