// Package fvc implements the Frequent Value Cache (Zhang, Yang &
// Gupta, 2000) at the L1: a 1024-line side cache that behaves like a
// victim cache but only stores lines whose words all belong to a
// small frequent-value set (7 values + "unknown"), held in compressed
// form. It needs real memory contents, which the MicroLib value
// oracle supplies — the paper notes this mechanism class cannot run
// on address-only simulators like stock SimpleScalar.
package fvc

import (
	"errors"

	"microlib/internal/cache"
	"microlib/internal/core"
)

// FVC is the frequent value cache.
type FVC struct {
	l1     *cache.Cache
	values core.ValueSource
	freq   map[uint64]struct{}

	lineSize int

	st    State          // all mutable state but lines, snapshotted whole
	lines map[uint64]int // derived index lineAddr -> st.Ring slot, rebuilt on restore
}

// New builds an FVC with nLines entries using the frequent-value set
// fv.
func New(l1 *cache.Cache, values core.ValueSource, fv []uint64, nLines int) *FVC {
	f := &FVC{
		l1:       l1,
		values:   values,
		freq:     make(map[uint64]struct{}, len(fv)),
		lineSize: l1.Config().LineSize,
		st:       State{Ring: make([]uint64, nLines)},
		lines:    make(map[uint64]int, nLines),
	}
	for _, v := range fv {
		f.freq[v] = struct{}{}
	}
	return f
}

// FrequentValueProvider is implemented by oracles that publish their
// frequent-value set (the workload oracle does).
type FrequentValueProvider interface {
	FrequentValues() [7]uint64
}

func init() {
	core.Register(core.Description{
		Name: "FVC", Level: "L1", Year: 2000,
		Summary:     "Frequent Value Cache: victim-cache-like store for value-compressible lines",
		Params:      []string{"lines"},
		NeedsValues: true,
	}, func(env *core.Env, p core.Params) (core.Mechanism, error) {
		if env.Values == nil {
			return nil, errors.New("fvc: host supplies no memory values (address-only simulator)")
		}
		var fv []uint64
		if prov, ok := env.Values.(FrequentValueProvider); ok {
			set := prov.FrequentValues()
			fv = set[:]
		} else {
			fv = []uint64{0, 1, ^uint64(0), 4, 8, 0x20, 0x100}
		}
		f := New(env.L1D, env.Values, fv, p.Get("lines", 1024))
		env.L1D.Attach(f)
		return f, nil
	})
}

// Name implements core.Mechanism.
func (f *FVC) Name() string { return "FVC" }

// compressible reports whether every word of the line is frequent.
func (f *FVC) compressible(lineAddr uint64) bool {
	for off := 0; off < f.lineSize; off += 8 {
		if _, ok := f.freq[f.values.Word(lineAddr+uint64(off))]; !ok {
			return false
		}
	}
	return true
}

// OnEvict implements cache.EvictObserver: keep the victim only when
// it is value-compressible. Dirty victims are not retained (their
// write-back proceeds normally) — the compressed copy would be stale.
func (f *FVC) OnEvict(lineAddr uint64, dirty bool, now uint64) {
	if dirty || !f.compressible(lineAddr) {
		f.st.Rejected++
		return
	}
	f.st.Inserts++
	if old := f.st.Ring[f.st.Pos]; old != 0 {
		delete(f.lines, old)
	}
	f.st.Ring[f.st.Pos] = lineAddr
	f.lines[lineAddr] = f.st.Pos
	f.st.Pos = (f.st.Pos + 1) % len(f.st.Ring)
}

// ProbeAux implements cache.AuxProber.
func (f *FVC) ProbeAux(lineAddr uint64, now uint64) bool {
	f.st.Probes++
	if i, ok := f.lines[lineAddr]; ok {
		delete(f.lines, lineAddr)
		f.st.Ring[i] = 0
		f.st.Hits++
		return true
	}
	return false
}

// RepeatMisses implements cache.AuxProber: a missing probe only
// counts.
func (f *FVC) RepeatMisses(n uint64) { f.st.Probes += n }

// Hardware implements core.CostModeler: 1024 lines, each stored as
// 3-bit codes per word plus a tag — about 8 bytes per line.
func (f *FVC) Hardware() []core.HWTable {
	return []core.HWTable{{
		Label: "fvc", Bytes: len(f.st.Ring) * 8, Assoc: 0, Ports: 1,
		Reads: f.st.Probes, Writes: f.st.Inserts,
	}}
}
