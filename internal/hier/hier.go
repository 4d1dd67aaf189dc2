// Package hier assembles the Table 1 memory hierarchy: L1 data and
// instruction caches, a unified L2, the L1/L2 bus (32 bytes at
// 2 GHz), the front-side bus (64 bytes at 400 MHz) and a main memory
// model, all on one event engine.
package hier

import (
	"fmt"
	"strings"

	"microlib/internal/bus"
	"microlib/internal/cache"
	"microlib/internal/mem"
	"microlib/internal/sim"
)

// MemoryKind selects the main-memory model (the paper's Figure 8
// compares all three).
type MemoryKind int

const (
	// MemSDRAM is the detailed Table 1 SDRAM (~170-cycle average).
	MemSDRAM MemoryKind = iota
	// MemConst70 is the SimpleScalar-like constant 70-cycle memory.
	MemConst70
	// MemSDRAM70 is the SDRAM scaled to a ~70-cycle average.
	MemSDRAM70
)

// String names the memory kind for reports.
func (k MemoryKind) String() string {
	switch k {
	case MemSDRAM:
		return "sdram-170"
	case MemConst70:
		return "const-70"
	case MemSDRAM70:
		return "sdram-70"
	}
	return "unknown"
}

// Name returns the kind's selector name — the value of a campaign
// spec's "memories" axis, the microsim -memory flag and the
// "hier.mem.kind" config field (distinct from String, which renders
// the kind with its average latency for reports).
func (k MemoryKind) Name() string {
	switch k {
	case MemConst70:
		return "const70"
	case MemSDRAM70:
		return "sdram70"
	}
	return "sdram"
}

// MemoryKindNames returns the valid memory-model selector names,
// default first.
func MemoryKindNames() []string { return []string{"sdram", "const70", "sdram70"} }

// ParseMemoryKind resolves a memory-model selector name.
func ParseMemoryKind(name string) (MemoryKind, error) {
	switch name {
	case "sdram":
		return MemSDRAM, nil
	case "const70":
		return MemConst70, nil
	case "sdram70":
		return MemSDRAM70, nil
	}
	return 0, fmt.Errorf("hier: unknown memory model %q (have %s)", name, strings.Join(MemoryKindNames(), ", "))
}

// Config describes the full hierarchy.
type Config struct {
	L1D, L1I, L2 cache.Config
	Memory       MemoryKind
	ConstLatency uint64
	SDRAM        mem.SDRAMConfig
	// L1BusBytes/L1BusCPUCycles: L1/L2 bus geometry (32 B @ 2 GHz).
	L1BusBytes, L1BusCPUCycles uint64
	// FSBBytes/FSBCPUCycles: front-side bus geometry (64 B @ 400 MHz
	// under a 2 GHz core = 5 CPU cycles per bus cycle).
	FSBBytes, FSBCPUCycles uint64
}

// DefaultConfig returns the paper's Table 1 baseline.
func DefaultConfig() Config {
	return Config{
		L1D: cache.Config{
			Name: "L1D", Size: 32 << 10, LineSize: 32, Assoc: 1,
			HitLatency: 1, Ports: 4, MSHRs: 8, ReadsPerMSHR: 4,
			WriteBack: true, AllocOnWrite: true,
		},
		L1I: cache.Config{
			Name: "L1I", Size: 32 << 10, LineSize: 32, Assoc: 4,
			HitLatency: 1, Ports: 1, MSHRs: 4, ReadsPerMSHR: 4,
			WriteBack: false, AllocOnWrite: false,
		},
		L2: cache.Config{
			Name: "L2", Size: 1 << 20, LineSize: 64, Assoc: 4,
			HitLatency: 12, Ports: 1, MSHRs: 8, ReadsPerMSHR: 4,
			WriteBack: true, AllocOnWrite: true,
		},
		Memory:         MemSDRAM,
		ConstLatency:   70,
		SDRAM:          mem.DefaultSDRAMConfig(),
		L1BusBytes:     32,
		L1BusCPUCycles: 1,
		FSBBytes:       64,
		FSBCPUCycles:   5,
	}
}

// Check reports a structurally impossible hierarchy as an error:
// every cache level passes its own check, the buses have geometry,
// the memory kind is known and — when the detailed SDRAM is selected
// — its device parameters hold up. Plan-time validation uses it so a
// bad sweep value fails before hier.Build would panic in a worker.
func (c Config) Check() error {
	for _, cc := range []cache.Config{c.L1D, c.L1I, c.L2} {
		if err := cc.Check(); err != nil {
			return err
		}
	}
	if c.L1BusBytes == 0 || c.L1BusCPUCycles == 0 {
		return fmt.Errorf("hier: L1/L2 bus needs positive width and cycle time")
	}
	if c.FSBBytes == 0 || c.FSBCPUCycles == 0 {
		return fmt.Errorf("hier: front-side bus needs positive width and cycle time")
	}
	switch c.Memory {
	case MemSDRAM:
		// Only the detailed model reads Config.SDRAM (the scaled
		// sdram70 variant carries its own fixed device parameters).
		if err := c.SDRAM.Check(); err != nil {
			return err
		}
	case MemConst70:
		if c.ConstLatency == 0 {
			return fmt.Errorf("hier: constant-latency memory needs a positive latency")
		}
	case MemSDRAM70:
	default:
		return fmt.Errorf("hier: unknown memory kind %d", c.Memory)
	}
	return nil
}

// Named hierarchy variants: the cache-model accuracy points the
// paper's validation and methodology studies compare. They are the
// values of a campaign spec's "hiers" axis.
const (
	// VariantDefault is the detailed Table 1 hierarchy as built.
	VariantDefault = "default"
	// VariantInfiniteMSHR relaxes only the miss address files
	// (Figure 9's cache-accuracy study).
	VariantInfiniteMSHR = "infinite-mshr"
	// VariantSimpleScalar flips every cache to the SimpleScalar-like
	// behaviour (Figure 1's comparison point).
	VariantSimpleScalar = "simplescalar"
)

// VariantNames returns the named hierarchy variants, default first.
func VariantNames() []string {
	return []string{VariantDefault, VariantInfiniteMSHR, VariantSimpleScalar}
}

// WithVariant returns the config with a named variant applied. The
// variant only flips accuracy flags, so it composes with WithMemory
// in either order.
func (c Config) WithVariant(name string) (Config, error) {
	switch name {
	case VariantDefault:
		return c, nil
	case VariantInfiniteMSHR:
		return c.InfiniteMSHRMode(), nil
	case VariantSimpleScalar:
		return c.SimpleScalarCacheMode(), nil
	}
	return c, fmt.Errorf("hier: unknown variant %q (have %s)", name, strings.Join(VariantNames(), ", "))
}

// SimpleScalarCacheMode flips every cache to the less-detailed
// SimpleScalar behaviour (infinite MSHRs, free refill ports, no
// pipeline stalls) — the Figure 1 comparison point.
func (c Config) SimpleScalarCacheMode() Config {
	for _, cc := range []*cache.Config{&c.L1D, &c.L1I, &c.L2} {
		cc.InfiniteMSHR = true
		cc.FreeRefillPorts = true
		cc.NoPipelineStall = true
	}
	return c
}

// InfiniteMSHRMode relaxes only the miss address file (Figure 9).
func (c Config) InfiniteMSHRMode() Config {
	c.L1D.InfiniteMSHR = true
	c.L1I.InfiniteMSHR = true
	c.L2.InfiniteMSHR = true
	return c
}

// WithMemory returns the config with a different memory model.
func (c Config) WithMemory(k MemoryKind) Config {
	c.Memory = k
	return c
}

// Hierarchy is a built memory system.
type Hierarchy struct {
	Eng   *sim.Engine
	L1D   *cache.Cache
	L1I   *cache.Cache
	L2    *cache.Cache
	L1Bus *bus.Bus
	FSB   *bus.Bus
	Mem   mem.Model

	// Backend identities, retained for warm-state snapshotting (their
	// pooled request nodes surface as calendar-event operands).
	l1dBack, l1iBack *l1DataBackend
	memBack          *memBackend
	constBack        *constBackend

	snap Snapshotter // reused by every NewSnapshotter
	rest Restorer    // reused by every NewRestorer
}

// Build wires the hierarchy on the engine.
func Build(eng *sim.Engine, cfg Config) *Hierarchy {
	return BuildRecycling(eng, cfg, Storage{})
}

// Storage is the line arrays of a hierarchy's caches, by level,
// detached by TakeStorage for a later BuildRecycling.
type Storage struct{ L1D, L1I, L2 cache.Storage }

// TakeStorage detaches every cache's line array. The hierarchy must
// not be used again.
func (h *Hierarchy) TakeStorage() Storage {
	return Storage{h.L1D.TakeStorage(), h.L1I.TakeStorage(), h.L2.TakeStorage()}
}

// BuildRecycling is Build, except that each cache reuses the line
// array of the same level of spare where the geometry allows (see
// cache.NewRecycling).
func BuildRecycling(eng *sim.Engine, cfg Config, spare Storage) *Hierarchy {
	h := &Hierarchy{Eng: eng}
	h.L1Bus = bus.New("l1l2", cfg.L1BusBytes, cfg.L1BusCPUCycles)
	h.FSB = bus.New("fsb", cfg.FSBBytes, cfg.FSBCPUCycles)

	switch cfg.Memory {
	case MemConst70:
		h.Mem = mem.NewConstLatency(eng, cfg.ConstLatency)
	case MemSDRAM70:
		s := mem.NewSDRAM(eng, mem.ScaledSDRAMConfig())
		s.SetName("sdram70")
		h.Mem = s
	default:
		h.Mem = mem.NewSDRAM(eng, cfg.SDRAM)
	}

	var l2Back cache.Backend
	if cfg.Memory == MemConst70 {
		h.constBack = &constBackend{eng: eng, m: h.Mem}
		l2Back = h.constBack
	} else {
		h.memBack = &memBackend{eng: eng, fsb: h.FSB, m: h.Mem, lineSize: uint64(cfg.L2.LineSize)}
		l2Back = h.memBack
	}
	h.L2 = cache.NewRecycling(eng, cfg.L2, l2Back, spare.L2)

	l1Back := &l2Backend{eng: eng, bus: h.L1Bus, l2: h.L2}
	h.l1dBack = &l1DataBackend{l2Backend: l1Back, lineSize: uint64(cfg.L1D.LineSize)}
	h.l1iBack = &l1DataBackend{l2Backend: l1Back, lineSize: uint64(cfg.L1I.LineSize)}
	h.L1D = cache.NewRecycling(eng, cfg.L1D, h.l1dBack, spare.L1D)
	h.L1I = cache.NewRecycling(eng, cfg.L1I, h.l1iBack, spare.L1I)
	return h
}
