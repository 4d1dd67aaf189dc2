package runner

import (
	"context"
	"fmt"
	"sync"

	"microlib/internal/core"
	"microlib/internal/cpu"
	"microlib/internal/hier"
	"microlib/internal/sim"
	"microlib/internal/telemetry"
	"microlib/internal/trace"
	"microlib/internal/workload"
)

// Machine is one fully-wired simulation: engine, hierarchy, mechanism,
// instruction source and host core. Every entry point builds it the
// same way and runs one path on it:
//   - RunOn (RunContext, Run) skips, then runs warm-up and measurement;
//   - NewCheckpointMachineOn (NewCheckpointMachine) builds a machine
//     that restores one warm-up prefix;
//   - RunPrefixOn (RunPrefixContext) builds that machine, skips, runs
//     to the warm-up boundary and captures a checkpoint there;
//   - RunFromCheckpointPrefix (RunFromCheckpoint) restores a checkpoint
//     into a machine holding its prefix and runs the measurement,
//     climbing the budget ladder.
//
// The machine is the one record of which prefix it can restore
// (Prefix). The *On entry points build each machine from a spare one's
// storage — cache line arrays, event calendar, out-of-order window —
// and take the largest mechanism tables from a MechTables, so a caller
// running cells one after another allocates them once.
type Machine struct {
	opts Options
	eng  *sim.Engine
	h    *hier.Hierarchy
	mech core.Mechanism

	// prefix is the PrefixCanonical form of the warm-up prefix the
	// machine restores, rendered once when a checkpoint machine is
	// built; "" while it restores none (see Prefix).
	prefix string

	// rung is the budget ladder's buffer (see RunFromCheckpointPrefix);
	// a new machine takes its spare's, invalid. fromRung and restoredAt
	// report the last restore's source and its commit count.
	rung       *rungBuffer
	fromRung   bool
	restoredAt uint64

	// mechSnaps keeps the mechanism snapshots captures displaced, by
	// mechanism name, for later captures of that mechanism to be built
	// in (see mechSnapshot); a new machine takes its spare's. A
	// snapshot is kept only while no state holds it, so a name keeps
	// at most as many as a worker has states to capture into: its
	// warm-up checkpoint and its rung.
	mechSnaps map[string][]any

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

// MechTables keeps the table storage that retired mechanisms gave up
// (core.Recycler), at most one per mechanism name, for a later build
// of the same name to take instead of allocating its own. The machines
// of several goroutines may share one, as a campaign run's workers do:
// a worker runs another mechanism most of the time, so one set per
// run holds about one copy of each table where one set per worker
// would hold a copy per worker. It is safe for concurrent use; the
// zero value is ready, and a nil *MechTables keeps nothing.
type MechTables struct {
	mu     sync.Mutex
	byName map[string]any
}

// put keeps s for the named mechanism, dropping what it kept before.
func (t *MechTables) put(name string, s any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byName == nil {
		t.byName = map[string]any{}
	}
	t.byName[name] = s
}

// take removes and returns what is kept for the named mechanism, or
// nil.
func (t *MechTables) take(name string) any {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.byName[name]
	delete(t.byName, name)
	return s
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

// newMachine wires a simulation for opts, once they pass ready; the
// machine keeps them with the budget default applied. Its stream is
// left at its origin: a cold run or a prefix capture discards the
// skipped instructions after the build (skip), a restore positions
// the stream from the snapshot. The stream always carries the
// cancellation wrap, so a machine reused across cells can swap in
// each cell's own (possibly deadlined) context.
//
// spare, when non-nil, is a machine its owner has finished with, so
// it must not run again. The new machine takes its storage:
//   - the caches' line arrays where the geometry matches (see
//     hier.BuildRecycling);
//   - the engine, reset to cycle 0 with its node freelist kept;
//   - the out-of-order window, ready queue and free load nodes (see
//     cpu.NewOoORecycling);
//   - its rung buffer and kept mechanism snapshots, to capture into.
//
// spare's mechanism, when it is a core.Recycler, gives up its tables
// to tables, and the new machine's mechanism is built in what tables
// keeps for its name; tables may be nil, which keeps nothing.
// Everything else is built fresh. The storage is detached and the
// engine reset first, so nothing else of spare — its program image in
// particular — is kept reachable while this machine opens its
// workload.
func newMachine(ctx context.Context, opts Options, spare *Machine, tables *MechTables) (*Machine, error) {
	opts, err := ready(ctx, opts)
	if err != nil {
		return nil, err
	}
	var (
		storage hier.Storage
		window  cpu.OoOStorage
	)
	m := &Machine{opts: opts}
	if spare != nil {
		storage = spare.h.TakeStorage()
		if spare.ooo != nil {
			window = spare.ooo.TakeStorage()
		}
		m.eng, spare.eng = spare.eng, nil
		m.eng.Reset()
		m.rung, spare.rung = spare.rung, nil
		if m.rung != nil {
			m.rung.ok = false
		}
		m.mechSnaps, spare.mechSnaps = spare.mechSnaps, nil
		if r, ok := spare.mech.(core.Recycler); ok && tables != nil {
			tables.put(spare.opts.Mechanism, r.TakeStorage())
		}
	}

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

	if m.eng == nil {
		m.eng = sim.NewEngine()
	}
	m.h = hier.BuildRecycling(m.eng, opts.Hier, storage)

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
		env.Spare = tables.take(name)
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

	m.cancel = &cancelStream{ctx: ctx, s: source}
	if opts.InOrder {
		m.ino = cpu.NewInOrder(m.eng, m.h, m.cancel)
		m.host = m.ino
	} else {
		m.ooo = cpu.NewOoORecycling(m.eng, opts.CPU, m.h, m.cancel, window)
		m.host = m.ooo
	}
	return m, nil
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
