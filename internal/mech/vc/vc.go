// Package vc implements Jouppi's Victim Cache (1990): a small
// fully-associative buffer beside the direct-mapped L1 that catches
// its evictions, converting conflict misses into one-cycle-penalty
// swaps.
package vc

import (
	"microlib/internal/cache"
	"microlib/internal/core"
	"microlib/internal/sim"
)

type entry struct {
	lineAddr uint64
	dirty    bool
	lastUse  uint64
}

// VC is the victim cache proper. It is also embedded by the TKVC
// mechanism, which filters insertions.
type VC struct {
	eng     *sim.Engine
	l1      *cache.Cache
	entries []entry
	tick    uint64

	Inserts uint64
	Hits    uint64
	Probes  uint64
	wbacks  uint64
}

// NewVC builds a victim cache of sizeBytes beside l1.
func NewVC(eng *sim.Engine, l1 *cache.Cache, sizeBytes int) *VC {
	n := sizeBytes / l1.Config().LineSize
	if n < 1 {
		n = 1
	}
	return &VC{eng: eng, l1: l1, entries: make([]entry, n)}
}

func init() {
	core.Register(core.Description{
		Name: "VC", Level: "L1", Year: 1990,
		Summary: "Victim Cache: small fully associative buffer for evicted L1 lines",
		Params:  []string{"bytes"},
	}, func(env *core.Env, p core.Params) (core.Mechanism, error) {
		v := NewVC(env.Eng, env.L1D, p.Get("bytes", 512))
		env.L1D.Attach(v)
		return v, nil
	})
}

// Name implements core.Mechanism.
func (v *VC) Name() string { return "VC" }

// Insert places an evicted line in the victim cache, retiring the
// LRU victim-of-the-victim (writing it back if dirty).
func (v *VC) Insert(lineAddr uint64, dirty bool) {
	v.Inserts++
	victim := 0
	for i := range v.entries {
		if v.entries[i].lineAddr == 0 {
			victim = i
			break
		}
		if v.entries[i].lastUse < v.entries[victim].lastUse {
			victim = i
		}
	}
	if old := &v.entries[victim]; old.lineAddr != 0 && old.dirty {
		v.wbacks++
		v.l1.WriteBackLine(old.lineAddr)
	}
	v.tick++
	v.entries[victim] = entry{lineAddr: lineAddr, dirty: dirty, lastUse: v.tick}
}

// OnEvict implements cache.EvictObserver.
func (v *VC) OnEvict(lineAddr uint64, dirty bool, now uint64) {
	v.Insert(lineAddr, dirty)
}

// ProbeAux implements cache.AuxProber: on an L1 miss, a victim-cache
// hit swaps the line back into the L1.
func (v *VC) ProbeAux(lineAddr uint64, now uint64) bool {
	v.Probes++
	for i := range v.entries {
		if v.entries[i].lineAddr == lineAddr {
			dirty := v.entries[i].dirty
			v.entries[i] = entry{}
			v.Hits++
			if dirty {
				// The line re-enters L1 clean from the array's point
				// of view; restore its dirtiness right after install.
				v.eng.AfterFunc(0, callMarkDirty, v.l1, nil, lineAddr, 0)
			}
			return true
		}
	}
	return false
}

// RepeatMisses implements cache.AuxProber: a missing probe only
// counts.
func (v *VC) RepeatMisses(n uint64) { v.Probes += n }

// callMarkDirty is the packed trampoline for the post-swap dirtiness
// restore: o1 is the L1, a0 the line address. The static shape keeps
// the dirty-hit path allocation-free (a closure here would allocate
// its capture environment on every dirty victim hit).
func callMarkDirty(_ uint64, o1, _ any, lineAddr, _ uint64) {
	o1.(*cache.Cache).MarkDirty(lineAddr)
}

// Hardware implements core.CostModeler.
func (v *VC) Hardware() []core.HWTable {
	bytes := len(v.entries) * v.l1.Config().LineSize
	return []core.HWTable{{
		Label: "victim-cache", Bytes: bytes, Assoc: 0, Ports: 1,
		Reads: v.Probes, Writes: v.Inserts,
	}}
}
