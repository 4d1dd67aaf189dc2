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
// instruction source and host core. RunContext builds one per call;
// the warm-state checkpoint paths build them explicitly so a prefix
// can be captured once and the measurement phase forked per cell —
// restoring into a reused Machine rather than reconstructing.
type Machine struct {
	opts Options
	eng  *sim.Engine
	h    *hier.Hierarchy
	mech core.Mechanism

	// prefix is opts.PrefixCanonical(), rendered once when a
	// checkpoint machine is built; restores compare against it.
	prefix string

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

// newMachine wires a simulation for already-validated options with the
// measured-budget default applied. When applySkip is false the stream
// is left at its origin — checkpoint restores position it from the
// snapshot instead. alwaysCancel forces the cancellation wrap even
// under an uncancelable context, so a machine reused across cells can
// swap in each cell's own (possibly deadlined) context later.
func newMachine(ctx context.Context, opts Options, applySkip, alwaysCancel bool) (*Machine, error) {
	m := &Machine{opts: opts}

	// Resolve the instruction source: a built-in benchmark, an inline
	// profile, or a recorded trace file.
	var source trace.Stream
	if opts.Workload != nil {
		stream, values, done, closeFn, err := opts.Workload.open(opts.Seed)
		if err != nil {
			return nil, err
		}
		m.closeFn = closeFn
		m.traceDone = done
		m.oracle = values
		source = stream
		if g, ok := stream.(*workload.Generator); ok {
			m.gen = g
		}
		if tf, ok := stream.(*trace.File); ok {
			m.tf = tf
		}
		if m.opts.Bench == "" {
			m.opts.Bench = opts.Workload.label()
		}
	} else {
		gen, err := workload.New(opts.Bench, opts.Seed)
		if err != nil {
			return nil, err
		}
		source, m.gen, m.oracle = gen, gen, gen.Oracle()
	}

	m.eng = sim.NewEngine()
	m.h = hier.Build(m.eng, opts.Hier)

	env := &core.Env{Eng: m.eng, L1D: m.h.L1D, L2: m.h.L2}
	if m.oracle != nil {
		// Assigned only when present: a typed nil in the interface
		// would defeat the mechanisms' Values == nil guard.
		env.Values = m.oracle
	}
	name := opts.Mechanism
	if name == "" {
		name = BaseName
	}
	if name != BaseName {
		mech, err := core.New(name, env, opts.Params)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("runner: %w", err)
		}
		m.mech = mech
	}
	if opts.QueueOverride > 0 {
		m.h.L1D.ForcePrefetchQueueCap(opts.QueueOverride)
		m.h.L2.ForcePrefetchQueueCap(opts.QueueOverride)
	}
	if opts.PrefetchAsDemand {
		m.h.L1D.SetPrefetchAsDemand(true)
		m.h.L2.SetPrefetchAsDemand(true)
	}

	// The cancel wrap goes on before Skip: Skip consumes its discarded
	// instructions eagerly, so on an uncancelable stream a large skip
	// would stall cancellation until it finished.
	stream := source
	if ctx.Done() != nil || alwaysCancel {
		m.cancel = &cancelStream{ctx: ctx, s: stream}
		stream = m.cancel
	}
	if applySkip && opts.Skip > 0 {
		stream = trace.Skip(stream, opts.Skip)
	}

	if opts.InOrder {
		m.ino = cpu.NewInOrder(m.eng, m.h, stream)
		m.host = m.ino
	} else {
		m.ooo = cpu.NewOoO(m.eng, opts.CPU, m.h, stream)
		m.host = m.ooo
	}
	return m, nil
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
// machine and assembles the Result. It is the shared back half of
// RunContext and RunWithStreamContext.
func (m *Machine) runMeasured(ctx context.Context, opts Options) (Result, error) {
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
