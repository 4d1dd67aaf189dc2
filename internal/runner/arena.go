package runner

import (
	"context"
	"fmt"
	"sync"

	"microlib/internal/core"
	"microlib/internal/cpu"
	"microlib/internal/hier"
	"microlib/internal/sim"
	"microlib/internal/trace"
	"microlib/internal/workload"
)

// Arena is one worker's storage: everything its cells allocate once
// and pass on, not once per cell. It owns
//   - the last machine built: its cache line arrays, engine and
//     out-of-order window, which the next build takes, and the warm-up
//     prefix it holds, which a restore of that prefix needs no build
//     for;
//   - the budget ladder's rung buffer and the mechanism snapshots
//     captures displaced, kept per mechanism name so alternating
//     mechanisms grow each one's snapshot once;
//   - one checkpoint buffer that every Capture overwrites;
//   - the run's mechanism tables, shared with the run's other arenas
//     (see NewArenas).
//
// An arena runs one cell at a time, so its last machine is always idle
// when the next one is built; it is not safe for concurrent use. The
// zero value is ready and keeps no mechanism tables. Every entry point
// of the package runs on an arena: the fresh one of a lone call, or a
// worker's, reused cell after cell.
type Arena struct {
	m *Machine
	// ck is the capture buffer, rung the budget ladder's; both are
	// built on first use.
	ck   *Checkpoint
	rung *rungBuffer
	// snaps holds, by mechanism name, the snapshots captures moved
	// out of ck or the rung for another mechanism's (see
	// Machine.mechSnapshot). A snapshot is kept only while no state
	// holds it, so a name keeps at most two.
	snaps map[string][]any
	// tables keeps, by mechanism name, the table storage the last
	// retired instance of that name gave up (core.Recycler), for the
	// next build of the name to take; nil keeps nothing.
	tables *sync.Map
}

// NewArenas returns n arenas over one set of mechanism tables: the
// DBCP and Markov tables the last retired instance of each gave up,
// taken by the next build of that name on any of them. A worker runs
// other mechanisms between two cells of one, so one set per run holds
// about one copy of each table where one set per arena would hold a
// copy per worker (~2.2 MB each, about a quarter of a 2-worker
// rank-grid's peak RSS).
func NewArenas(n int) []*Arena {
	t := new(sync.Map)
	as := make([]*Arena, n)
	for i := range as {
		as[i] = &Arena{tables: t}
	}
	return as
}

// Run executes one simulation cold on a machine built from the
// arena's storage. The Result's Mech belongs to that machine, so it
// is valid only until the arena's next build.
func (a *Arena) Run(ctx context.Context, opts Options) (Result, error) {
	m, err := a.build(ctx, opts)
	if err != nil {
		return Result{}, err
	}
	defer m.Close()
	m.skip()
	return m.runMeasured(ctx)
}

// Capture simulates the options' warm-up prefix (skip + warm-up) on a
// machine built from the arena's storage and captures it at the
// warm-up boundary into the arena's checkpoint buffer, reusing its
// tables where their capacity suffices. The checkpoint serves Restore
// and RunFromCheckpoint for any options sharing the prefix whose
// measured budget exceeds MinInsts; it is valid until the arena's next
// Capture. The machine then holds exactly the captured state, so the
// arena's first Restore of the prefix costs no build.
func (a *Arena) Capture(ctx context.Context, opts Options) (*Checkpoint, error) {
	m, err := a.build(ctx, opts)
	if err != nil {
		return nil, err
	}
	if opts.Warmup == 0 {
		return nil, fmt.Errorf("runner: a warm-state checkpoint needs Warmup > 0")
	}
	m.skip()
	if a.ck == nil {
		a.ck = new(Checkpoint)
	}
	ck := a.ck
	m.host.SetWarmup(opts.Warmup, func(cycles uint64) { ck.Warm = m.warmStats(cycles) })
	if got := m.advance(opts.Warmup); got < opts.Warmup {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if m.traceDone != nil {
			if err := m.traceDone(); err != nil {
				return nil, fmt.Errorf("runner: %s: %w", opts.Workload.TracePath, err)
			}
		}
		return nil, fmt.Errorf("runner: stream ended after %d of %d warm-up instructions (skip=%d)",
			got, opts.Warmup, opts.Skip)
	}
	m.prefix = opts.PrefixCanonical()
	if err := m.capture(ck, ck.Warm); err != nil { // the hook set ck.Warm at the boundary
		m.prefix = ""
		return nil, err
	}
	return ck, nil
}

// Restore restores ck into the arena's machine and runs the options'
// measurement phase, climbing the budget ladder (see
// Machine.RunFromCheckpoint). prefix is the options' PrefixCanonical
// form, which a campaign renders once per cell at plan time. A machine
// is built only when the arena's does not hold prefix: after a
// restore of another prefix, a cold run, or a restore that failed or
// panicked part-way. at is the commit count the run was restored at,
// the warm-up boundary or a rung's, and rung reports the latter: the
// run simulated only the instructions it committed past at.
func (a *Arena) Restore(ctx context.Context, opts Options, prefix string, ck *Checkpoint) (res Result, at uint64, rung bool, err error) {
	m := a.m
	if m == nil || m.prefix != prefix {
		if m, err = a.build(ctx, opts); err != nil {
			return Result{}, 0, false, err
		}
		m.prefix = prefix
	}
	return m.restore(ctx, opts, prefix, ck)
}

// Close releases the arena's machine. The arena may build again.
func (a *Arena) Close() {
	if a.m != nil {
		a.m.Close()
		a.m = nil
	}
}

// build wires a simulation for opts, once they pass ready, and makes
// it the arena's machine; the machine keeps the options with the
// budget default applied. Its stream is left at its origin: a cold run
// or a capture discards the skipped instructions after the build
// (skip), a restore positions the stream from the snapshot. The stream
// always carries the cancellation wrap, so a machine reused across
// cells can swap in each cell's own (possibly deadlined) context.
//
// The new machine takes the arena's last machine's storage, which
// must not run again:
//   - the caches' line arrays where the geometry matches (see
//     hier.BuildRecycling);
//   - the engine, reset to cycle 0 with its node freelist kept;
//   - the out-of-order window, ready queue and free load nodes (see
//     cpu.NewOoORecycling).
//
// The last machine's mechanism, when it is a core.Recycler, gives up
// its tables to the arena's mechanism tables, and the new mechanism is
// built in what they keep for its name. Everything else is built
// fresh. The storage is detached and the engine reset first, so
// nothing else of the last machine — its program image in particular —
// is kept reachable while the new one opens its workload. The rung
// belongs to the last machine's prefix, so it is dropped.
func (a *Arena) build(ctx context.Context, opts Options) (*Machine, error) {
	opts, err := ready(ctx, opts)
	if err != nil {
		return nil, err
	}
	var (
		storage hier.Storage
		window  cpu.OoOStorage
	)
	m := &Machine{opts: opts, arena: a}
	if last := a.m; last != nil {
		a.m = nil
		last.Close()
		storage = last.h.TakeStorage()
		if last.ooo != nil {
			window = last.ooo.TakeStorage()
		}
		m.eng, last.eng = last.eng, nil
		m.eng.Reset()
		if r, ok := last.mech.(core.Recycler); ok && a.tables != nil {
			a.tables.Store(last.opts.Mechanism, r.TakeStorage())
		}
	}
	if a.rung != nil {
		a.rung.ok = false
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
		if a.tables != nil {
			env.Spare, _ = a.tables.LoadAndDelete(name)
		}
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
	a.m = m
	return m, nil
}
