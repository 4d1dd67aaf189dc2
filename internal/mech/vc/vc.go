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

// VC is the victim cache proper. It is also embedded by the TKVC
// mechanism, which filters insertions.
type VC struct {
	eng *sim.Engine
	l1  *cache.Cache

	st State // all mutable state, snapshotted whole
}

// NewVC builds a victim cache of sizeBytes beside l1.
func NewVC(eng *sim.Engine, l1 *cache.Cache, sizeBytes int) *VC {
	n := sizeBytes / l1.Config().LineSize
	if n < 1 {
		n = 1
	}
	return &VC{eng: eng, l1: l1, st: State{Entries: make([]EntryState, n)}}
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
	v.st.Inserts++
	victim := 0
	for i := range v.st.Entries {
		if v.st.Entries[i].LineAddr == 0 {
			victim = i
			break
		}
		if v.st.Entries[i].LastUse < v.st.Entries[victim].LastUse {
			victim = i
		}
	}
	if old := &v.st.Entries[victim]; old.LineAddr != 0 && old.Dirty {
		v.st.WBacks++
		v.l1.WriteBackLine(old.LineAddr)
	}
	v.st.Tick++
	v.st.Entries[victim] = EntryState{LineAddr: lineAddr, Dirty: dirty, LastUse: v.st.Tick}
}

// OnEvict implements cache.EvictObserver.
func (v *VC) OnEvict(lineAddr uint64, dirty bool, now uint64) {
	v.Insert(lineAddr, dirty)
}

// ProbeAux implements cache.AuxProber: on an L1 miss, a victim-cache
// hit swaps the line back into the L1.
func (v *VC) ProbeAux(lineAddr uint64, now uint64) bool {
	v.st.Probes++
	for i := range v.st.Entries {
		if v.st.Entries[i].LineAddr == lineAddr {
			dirty := v.st.Entries[i].Dirty
			v.st.Entries[i] = EntryState{}
			v.st.Hits++
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
func (v *VC) RepeatMisses(n uint64) { v.st.Probes += n }

// callMarkDirty is the packed trampoline for the post-swap dirtiness
// restore: o1 is the L1, a0 the line address. The static shape keeps
// the dirty-hit path allocation-free (a closure here would allocate
// its capture environment on every dirty victim hit).
func callMarkDirty(_ uint64, o1, _ any, lineAddr, _ uint64) {
	o1.(*cache.Cache).MarkDirty(lineAddr)
}

// Inserts reports lines placed in the victim cache.
func (v *VC) Inserts() uint64 { return v.st.Inserts }

// Hardware implements core.CostModeler.
func (v *VC) Hardware() []core.HWTable {
	bytes := len(v.st.Entries) * v.l1.Config().LineSize
	return []core.HWTable{{
		Label: "victim-cache", Bytes: bytes, Assoc: 0, Ports: 1,
		Reads: v.st.Probes, Writes: v.st.Inserts,
	}}
}
