// Package core is the MicroLib module framework — the paper's
// primary contribution (its Section 4). It defines the contract
// between pluggable micro-architecture mechanism modules and the host
// simulator: an environment handle giving a mechanism access to the
// cache levels, the clock and the memory value oracle; a registry
// that maps mechanism names ("GHB", "DBCP", ...) to factories; and
// the hardware-table descriptors the cost/power models consume.
//
// A mechanism is any value registered here that implements at least
// one of the cache hook interfaces (cache.AccessObserver,
// cache.AuxProber, cache.EvictObserver, cache.FillObserver,
// cache.MissObserver). Host processor models — MicroLib's own cores
// or foreign simulators behind a wrapper — only ever deal with the
// Mechanism interface, which is what makes the quantitative
// comparison of Table 2's twelve mechanisms a one-line configuration
// change.
package core

import (
	"fmt"
	"sort"

	"microlib/internal/cache"
	"microlib/internal/sim"
)

// ValueSource supplies memory contents. The paper's OoOSysC model
// "actually performs all computations", so its caches hold real
// values; mechanisms that inspect data (content-directed prefetching,
// the frequent value cache) read line words through this interface.
type ValueSource interface {
	// Word returns the 8-byte value stored at the (aligned) address.
	Word(addr uint64) uint64
	// IsPointer reports whether the value at addr decodes to a heap
	// address under the running program's memory map.
	IsPointer(addr uint64) (target uint64, ok bool)
}

// Env is what a mechanism receives at construction: attach points and
// services. L1D and L2 are always present; Values may be nil when the
// host cannot supply contents (the SimpleScalar wrapper case — the
// paper notes value-dependent mechanisms then cannot run).
type Env struct {
	Eng    *sim.Engine
	L1D    *cache.Cache
	L2     *cache.Cache
	Values ValueSource
	// Spare is nil or the table storage an earlier instance of the
	// same mechanism gave up (Recycler.TakeStorage). The factory builds
	// in it when its geometry matches, cleared so the instance starts
	// exactly as a fresh one, and otherwise allocates afresh and drops
	// it.
	Spare any
}

// Params carries per-mechanism integer options (table sizes, queue
// depths, variant switches). Missing keys fall back to defaults.
type Params map[string]int

// Get returns the value for key or def when absent.
func (p Params) Get(key string, def int) int {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// Mechanism is a pluggable micro-architecture optimization.
type Mechanism interface {
	// Name returns the registry name (e.g. "GHB").
	Name() string
}

// HWTable describes one SRAM structure a mechanism adds, with its
// observed activity; the hwcost package turns these into area and
// energy. Reads/Writes are cumulative access counts.
type HWTable struct {
	Label  string
	Bytes  int
	Assoc  int // 0 = fully associative
	Ports  int
	Reads  uint64
	Writes uint64
}

// CostModeler is implemented by mechanisms that add hardware; the
// Figure 5 experiment consumes it.
type CostModeler interface {
	Hardware() []HWTable
}

// Snapshotter is implemented by mechanisms whose internal state must
// travel in warm-state checkpoints. SnapState returns a self-contained
// serializable value (a plain-data State type the mechanism's package
// registers with encoding/gob). prev is nil or a value an earlier
// SnapState returned that the caller gives up: when it is of the
// mechanism's State type, the new value may be built in its backing
// arrays, so a repeated capture allocates no table. RestoreState
// overwrites the mechanism's state from a value previously returned by
// SnapState on an identically-configured instance, and keeps no
// reference into it. The runner refuses to checkpoint
// a machine whose mechanism does not implement the interface, so a
// mechanism without it silently opts its cells out of prefix sharing
// rather than producing wrong results.
type Snapshotter interface {
	SnapState(prev any) any
	RestoreState(st any) error
}

// Recycler is implemented by mechanisms whose tables are large enough
// to hand on: a host building many machines one after another passes
// the storage to the next instance of the same name through Env.Spare,
// instead of allocating it per machine.
type Recycler interface {
	// TakeStorage detaches the mechanism's table storage, which holds
	// no reference to the caches, engine or anything else of the
	// machine. The mechanism must not be used again.
	TakeStorage() any
}

// Factory builds a mechanism inside an environment.
type Factory func(env *Env, p Params) (Mechanism, error)

// Description documents a registered mechanism for listings
// (Table 2's rows).
type Description struct {
	Name    string
	Level   string // "L1" or "L2"
	Year    int    // publication year, for the progress-over-time plot
	Summary string
	// Params declares the construction parameter keys the mechanism's
	// factory understands (the Table 3 second-guessable knobs).
	// Callers that accept user-written parameter maps (campaign
	// specs, CLIs) validate keys against this list, so a misspelled
	// key fails loudly instead of silently using the default.
	Params []string
	// NeedsValues marks mechanisms that inspect memory contents
	// (Env.Values): they cannot run on hosts without a value source,
	// such as recorded-trace workloads. Declaring it lets planners
	// reject the combination up front instead of failing every cell
	// at run time.
	NeedsValues bool
}

// HasParam reports whether the mechanism declares the parameter key.
func (d Description) HasParam(key string) bool {
	for _, p := range d.Params {
		if p == key {
			return true
		}
	}
	return false
}

type registration struct {
	desc    Description
	factory Factory
}

var registry = map[string]registration{}

// Register installs a mechanism factory under desc.Name. It panics on
// duplicates: registration happens in package init, where a collision
// is a build error, not a runtime condition.
func Register(desc Description, f Factory) {
	if _, dup := registry[desc.Name]; dup {
		panic("core: duplicate mechanism registration: " + desc.Name)
	}
	registry[desc.Name] = registration{desc: desc, factory: f}
}

// New instantiates the named mechanism in env.
func New(name string, env *Env, p Params) (Mechanism, error) {
	reg, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown mechanism %q", name)
	}
	return reg.factory(env, p)
}

// Names returns the registered mechanism names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Describe returns the registered description.
func Describe(name string) (Description, bool) {
	r, ok := registry[name]
	return r.desc, ok
}

// Descriptions returns all registered descriptions sorted by year
// then name — the order of the paper's Table 2.
func Descriptions() []Description {
	out := make([]Description, 0, len(registry))
	for _, r := range registry {
		out = append(out, r.desc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Year != out[j].Year {
			return out[i].Year < out[j].Year
		}
		return out[i].Name < out[j].Name
	})
	return out
}
