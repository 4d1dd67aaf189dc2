// Package runner assembles complete simulations: workload generator,
// trace selection, memory hierarchy, mechanism, and host core. It is
// the single entry point the experiments, the public facade and the
// CLIs build on.
package runner

import (
	"context"

	"microlib/internal/cache"
	"microlib/internal/core"
	"microlib/internal/cpu"
	"microlib/internal/hier"
	_ "microlib/internal/mech/all" // register every mechanism
	"microlib/internal/mem"
	"microlib/internal/telemetry"
	"microlib/internal/trace"
)

// hostCore is what the runner needs from either host-core model: a
// warm-up hook, the run loop, and a mid-run committed-instruction
// reading for the telemetry sampler.
type hostCore interface {
	SetWarmup(insts uint64, fn func(cycles uint64))
	Run(maxInsts uint64) cpu.Result
	Committed() uint64
}

// BaseName is the pseudo-mechanism name for the unmodified hierarchy.
const BaseName = "Base"

// defaultInsts is the measured budget used when Options.Insts is 0.
const defaultInsts = 200_000

// Options selects one simulation.
type Options struct {
	// Bench names a built-in benchmark — or, when Workload is set,
	// merely labels it in results (the workload's own name is the
	// fallback label).
	Bench string
	// Workload, when non-nil, replaces the built-in benchmark with a
	// custom instruction source: an inline synthetic profile or a
	// recorded trace file. Fingerprints then key on the workload's
	// content, not on Bench.
	Workload  *Workload
	Mechanism string // BaseName (or "") for the plain hierarchy
	Params    core.Params
	Hier      hier.Config
	CPU       cpu.Config
	// Insts is the number of instructions to measure.
	Insts uint64
	// Warmup instructions are simulated (caches and predictor tables
	// fill) before measurement begins — the scaled equivalent of the
	// steady state a 500M-instruction SimPoint trace reaches.
	Warmup uint64
	// Skip discards instructions before measurement (the arbitrary
	// trace selection of Section 3.5). Ignored when a SimPoint
	// offset is supplied.
	Skip uint64
	// Seed keys the workload generator.
	Seed uint64
	// InOrder selects the scalar host core instead of the OoO core.
	InOrder bool
	// QueueOverride, when > 0, forces the prefetch request queue
	// size after mechanism attach (Figure 10).
	QueueOverride int
	// PrefetchAsDemand disables the demand-priority treatment of
	// prefetches (design-choice ablation).
	PrefetchAsDemand bool

	// Interval, when > 0 together with IntervalSink, streams
	// time-resolved counter deltas: one telemetry.Interval per
	// Interval simulated cycles (plus a forced boundary at the
	// warm-up commit and a final partial interval at end of run).
	// Observability only — neither field enters the fingerprint, and
	// a sampled run is bit-identical to an unsampled one.
	Interval     uint64
	IntervalSink func(telemetry.Interval)
}

// DefaultOptions returns the Table 1 system with the standard scaled
// trace budget — 150k measured instructions after 50k of warm-up, a
// stand-in for the paper's 500M SimPoint traces (see EXPERIMENTS.md).
// Note this differs from the bare Run fallback for a zero budget
// (defaultInsts, no warm-up).
func DefaultOptions(bench, mechName string) Options {
	return Options{
		Bench:     bench,
		Mechanism: mechName,
		Hier:      hier.DefaultConfig(),
		CPU:       cpu.DefaultConfig(),
		Insts:     150_000,
		Warmup:    50_000,
		Seed:      42,
	}
}

// Result is the outcome of one simulation.
type Result struct {
	Bench     string
	Mechanism string
	CPU       cpu.Result
	IPC       float64
	L1D       cache.Stats
	L1I       cache.Stats
	L2        cache.Stats
	Mem       mem.Stats
	Hardware  []core.HWTable
	// BaseCacheAccesses approximates total L1D+L2 activity for the
	// power model.
	BaseCacheAccesses uint64
	// Mech is the live mechanism instance (nil for Base); tests and
	// diagnostics inspect it.
	Mech core.Mechanism
}

// Run executes one simulation to completion.
func Run(opts Options) (Result, error) {
	return RunContext(context.Background(), opts)
}

// RunContext executes one simulation under a context. Cancellation is
// observed at instruction-fetch granularity: the host core winds down
// within a few thousand simulated instructions of ctx being canceled
// and RunContext returns ctx's error instead of a partial Result.
func RunContext(ctx context.Context, opts Options) (Result, error) {
	res, _, err := RunOn(ctx, opts, nil, nil)
	return res, err
}

// RunOn is RunContext on a machine built from spare's cache storage.
// spare may be nil; otherwise it is a machine the caller has finished
// with, whose cache line arrays the new machine takes, so it must not
// run again. tables may be nil; otherwise spare's mechanism leaves its
// tables there and the new mechanism takes its own name's from there
// (see MechTables). RunOn also returns the machine it ran on, closed,
// even when the run failed, for the caller to pass as the next call's
// spare; it is nil when none was built. The Result's Mech belongs to
// that machine, so it is only valid until the machine is recycled.
func RunOn(ctx context.Context, opts Options, spare *Machine, tables *MechTables) (Result, *Machine, error) {
	m, err := newMachine(ctx, opts, spare, tables)
	if err != nil {
		return Result{}, nil, err
	}
	defer m.Close()
	m.skip()
	res, err := m.runMeasured(ctx)
	return res, m, err
}

// cancelStream ends the instruction stream shortly after its context
// is canceled, which makes the host core drain and Run return. The
// context is polled every 1024 instructions to keep the fetch path
// cheap.
type cancelStream struct {
	ctx context.Context
	s   trace.Stream
	n   uint
}

func (c *cancelStream) Next(inst *trace.Inst) bool {
	if c.n++; c.n&1023 == 0 && c.ctx.Err() != nil {
		return false
	}
	return c.s.Next(inst)
}
