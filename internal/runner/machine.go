package runner

import (
	"context"
	"fmt"

	"microlib/internal/core"
	"microlib/internal/cpu"
	"microlib/internal/hier"
	"microlib/internal/sim"
	"microlib/internal/telemetry"
	"microlib/internal/trace"
	"microlib/internal/workload"
)

// Machine is one fully-wired simulation: engine, hierarchy, mechanism,
// instruction source and host core. An Arena builds every machine the
// same way (build) and runs one path on it: a cold run (Run), a
// warm-up capture (Capture) or a restore (Machine.restore), which
// climbs the budget ladder. The machine is the one record of which
// prefix it can restore.
type Machine struct {
	opts Options
	eng  *sim.Engine
	h    *hier.Hierarchy
	mech core.Mechanism

	// prefix is the PrefixCanonical form of the warm-up prefix the
	// machine restores, set when it is built for a restore or captures
	// one; "" while it restores none.
	prefix string

	// arena built the machine and owns the storage it captures into:
	// the rung buffer and the kept mechanism snapshots.
	arena *Arena

	gen    *workload.Generator
	tf     *trace.File
	oracle *workload.Oracle

	host hostCore
	ooo  *cpu.OoO
	ino  *cpu.InOrder

	// cancel is the stream's cancellation wrap, kept so a reused
	// machine can be re-aimed at the next cell's context.
	cancel *cancelStream

	traceDone func() error
	closeFn   func() error
}

// ready checks what every build and restore needs first, a live
// context and valid options, and applies the measured-budget default.
func ready(ctx context.Context, opts Options) (Options, error) {
	if err := ctx.Err(); err != nil {
		return opts, err
	}
	if err := opts.Validate(); err != nil {
		return opts, err
	}
	if opts.Insts == 0 {
		opts.Insts = defaultInsts
	}
	return opts, nil
}

// skip discards the options' skipped instructions (the trace
// selection) from a just-built machine's stream, ahead of everything
// the core fetches. It reads through the cancellation wrap, so a large
// skip does not stall cancellation.
func (m *Machine) skip() {
	trace.Skip(m.cancel, m.opts.Skip)
}

// Close releases the machine's file-backed resources, if any.
func (m *Machine) Close() error {
	if m.closeFn != nil {
		fn := m.closeFn
		m.closeFn = nil
		return fn()
	}
	return nil
}

// warmStats reads the machine's running statistics at a warm-up
// boundary. Called from the host core's warm-up hook, at the commit of
// the last warm-up instruction — the same instant on a live prefix and
// on the prefix run that captures a checkpoint.
func (m *Machine) warmStats(cycles uint64) WarmStats {
	return WarmStats{
		Cycles: cycles,
		L1D:    m.h.L1D.Stats(),
		L1I:    m.h.L1I.Stats(),
		L2:     m.h.L2.Stats(),
		Mem:    m.h.Mem.Stats(),
	}
}

// runMeasured executes warm-up plus measurement on a freshly-wired
// machine and assembles the Result: the back half of a cold run.
func (m *Machine) runMeasured(ctx context.Context) (Result, error) {
	opts := m.opts
	// The interval sampler rides the engine calendar and only reads
	// counters the models already keep, so enabling it changes no
	// simulated observable; leaving it off adds no per-cycle work.
	var sampler *telemetry.Sampler
	if opts.Interval > 0 && opts.IntervalSink != nil {
		sampler = telemetry.NewSampler(m.eng, opts.Interval, opts.Warmup > 0, func(c *telemetry.Counters) {
			c.Cycle = m.eng.Now()
			c.Insts = m.host.Committed()
			c.L1D = m.h.L1D.Stats()
			c.L1I = m.h.L1I.Stats()
			c.L2 = m.h.L2.Stats()
			c.Mem = m.h.Mem.Stats()
			c.L1Bus.Transfers, c.L1Bus.BusyCycles, c.L1Bus.WaitCycles = m.h.L1Bus.Stats()
			c.FSB.Transfers, c.FSB.BusyCycles, c.FSB.WaitCycles = m.h.FSB.Stats()
		}, opts.IntervalSink)
	}

	var warm WarmStats
	snapshot := func(cycles uint64) {
		warm = m.warmStats(cycles)
		if sampler != nil {
			// Cut at the same instant: the measured intervals that
			// follow sum exactly to the measured whole-run stats.
			sampler.EndWarmup(cycles)
		}
	}

	total := opts.Warmup + opts.Insts
	if opts.Warmup > 0 {
		m.host.SetWarmup(opts.Warmup, snapshot)
	}
	cres := m.host.Run(total)
	res, err := m.finish(ctx, warm, cres, total)
	if err != nil {
		return Result{}, err
	}
	if sampler != nil {
		// Only a run that completed its budget emits the closing
		// interval; error paths above discard the partial series.
		sampler.Finish(cres.Cycles)
	}
	return res, nil
}

// finish validates the completed run and assembles the Result, with
// measured statistics cut at the supplied warm-up boundary.
func (m *Machine) finish(ctx context.Context, warm WarmStats, cres cpu.Result, total uint64) (Result, error) {
	opts := m.opts
	// A budget shortfall means the stream was cut — by cancellation if
	// ctx says so. A run that finished its full budget is valid even
	// when cancellation landed just after it completed.
	if cres.Insts < total {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	if m.traceDone != nil {
		// Trace-file streams are finite and may be damaged: a decode
		// error (truncated mid-record, torn copy) or a trace shorter
		// than the simulation budget must fail the run — silently
		// measuring the prefix would report numbers for a different
		// experiment than the one the options name.
		if err := m.traceDone(); err != nil {
			return Result{}, fmt.Errorf("runner: %s: %w", opts.Workload.TracePath, err)
		}
		if cres.Insts < total {
			return Result{}, fmt.Errorf("runner: trace %s ended after %d of %d instructions (skip=%d warmup=%d measure=%d)",
				opts.Workload.TracePath, cres.Insts, total, opts.Skip, opts.Warmup, opts.Insts)
		}
	}

	measCycles := cres.Cycles - warm.Cycles
	if measCycles == 0 {
		measCycles = 1
	}
	measInsts := cres.Insts - opts.Warmup

	name := opts.Mechanism
	if name == "" {
		name = BaseName
	}
	res := Result{
		Bench:     opts.Bench,
		Mechanism: name,
		CPU:       cres,
		IPC:       float64(measInsts) / float64(measCycles),
		L1D:       m.h.L1D.Stats().Sub(warm.L1D),
		L1I:       m.h.L1I.Stats().Sub(warm.L1I),
		L2:        m.h.L2.Stats().Sub(warm.L2),
		Mem:       m.h.Mem.Stats().Sub(warm.Mem),
	}
	res.BaseCacheAccesses = res.L1D.Accesses + res.L1I.Accesses + res.L2.Accesses
	res.Mech = m.mech
	if cm, ok := m.mech.(core.CostModeler); ok {
		res.Hardware = cm.Hardware()
	}
	return res, nil
}
