package runner

import (
	"context"
	"errors"
	"fmt"

	"microlib/internal/cache"
	"microlib/internal/core"
	"microlib/internal/cpu"
	"microlib/internal/hier"
	"microlib/internal/mem"
	"microlib/internal/sim"
	"microlib/internal/trace"
	"microlib/internal/workload"
)

// This file implements warm-state checkpointing: a campaign pays for
// each distinct warm-up prefix once, snapshots the whole simulated
// machine at the warm-up boundary, and forks the measurement phase of
// every cell that shares the prefix from the snapshot. Two tiers
// exist, because two different kinds of sweep repeat work:
//
//   - A machine checkpoint (RunPrefixContext / RunFromCheckpoint)
//     captures the full machine — calendar, caches, memory, core,
//     mechanism, stream cursor — keyed by PrefixFingerprint. Cells
//     sharing it differ only in the measured budget.
//   - A stream checkpoint (CaptureStreamContext / RunWithStreamContext)
//     captures only the post-skip workload cursor, keyed by
//     StreamFingerprint. Cells sharing it may differ in any machine
//     parameter, so it accelerates geometry and mechanism sweeps where
//     the machine prefix diverges but the skipped stream is identical.
//
// Both restores are bit-identical to a live run: the restored engine
// preserves the (when, seq) event order and its own sequence counter,
// and every component overwrites its mutable state from plain data.

// CheckpointVersion tags the serialized state layout. Bump it whenever
// any component's snapshot struct changes shape or meaning — a stale
// checkpoint must be discarded, never reinterpreted.
//
// v2: cpu.Result gained the per-reason retry counters
// (RetryPort/RetryStall/RetryMSHR), changing the gob shape of both
// cores' serialized state.
const CheckpointVersion = 2

// ErrCheckpointUnusable marks a checkpoint that cannot serve the
// requested run (version skew, prefix mismatch, measured budget inside
// the fetch horizon, interval telemetry requested). Callers detecting
// it fall back to a cold run; any other error is a real failure.
var ErrCheckpointUnusable = errors.New("checkpoint unusable")

// WarmStats are the running statistics at the warm-up boundary. A
// restored measurement subtracts them exactly as a live run subtracts
// the boundary snapshot its warm-up hook captured.
type WarmStats struct {
	Cycles uint64
	L1D    cache.Stats
	L1I    cache.Stats
	L2     cache.Stats
	Mem    mem.Stats
}

// StreamState is a workload cursor: the generator's mutable state for
// synthetic workloads, or the absolute record index for recorded
// traces.
type StreamState struct {
	Gen      *workload.GeneratorState
	TraceRec uint64
}

// MachineState is the full mutable state of a simulated machine.
// Exactly one of OoO and InOrder is set, matching the configured host
// core; Loads is the payload table for the OoO core's in-flight pooled
// load nodes referenced from the engine and cache snapshots.
type MachineState struct {
	Engine  sim.EngineState
	Hier    hier.State
	OoO     *cpu.OoOState
	InOrder *cpu.InOrderState
	Loads   []cpu.LoadState
	Mech    any
	Stream  StreamState
}

// Checkpoint is a warm-state snapshot: the machine at the warm-up
// boundary plus the boundary statistics a measured run subtracts.
type Checkpoint struct {
	Version int
	// Prefix is the generating options' PrefixCanonical form, kept in
	// full so a fingerprint collision surfaces as a mismatch instead
	// of silently restoring the wrong machine.
	Prefix string
	// MinInsts is the fetch horizon: the out-of-order core had already
	// fetched this many instructions past the warm-up commit when the
	// snapshot was taken (fetch runs ahead of commit). A measured
	// budget must strictly exceed it, or the equivalent live run would
	// have capped fetch inside the prefix and diverged. Always zero
	// for the scalar core.
	MinInsts uint64
	Warm     WarmStats
	Machine  MachineState
}

// StreamCheckpoint is a post-skip workload cursor snapshot.
type StreamCheckpoint struct {
	Version int
	// Key is the generating options' StreamCanonical form (kept in
	// full, like Checkpoint.Prefix).
	Key   string
	State StreamState
}

// opRefCore and opRefMech are the runner-level operand domains: the
// host core and the mechanism are singletons per machine, referenced
// by kind alone.
const (
	opRefCore = "cpu.core"
	opRefMech = "mech"
)

// captureState snapshots the machine's full mutable state. The operand
// resolution chain is hierarchy (components and pooled request nodes)
// → OoO load nodes → runner singletons (host core, mechanism).
func (m *Machine) captureState() (MachineState, error) {
	var st MachineState
	tail := func(v any) (sim.OpRef, bool) {
		if m.ooo != nil && v == any(m.ooo) {
			return sim.OpRef{Kind: opRefCore}, true
		}
		if m.ino != nil && v == any(m.ino) {
			return sim.OpRef{Kind: opRefCore}, true
		}
		if m.mech != nil && v == any(m.mech) {
			return sim.OpRef{Kind: opRefMech}, true
		}
		return sim.OpRef{}, false
	}
	next := tail
	var loadRes *cpu.LoadResolver
	if m.ooo != nil {
		loadRes = m.ooo.NewLoadResolver()
		next = func(v any) (sim.OpRef, bool) {
			if r, ok := loadRes.Ref(v); ok {
				return r, true
			}
			return tail(v)
		}
	}
	snap := m.h.NewSnapshotter(&st.Hier, next)
	if err := snap.Capture(); err != nil {
		return MachineState{}, err
	}
	est, err := m.eng.Snapshot(snap.Ref)
	if err != nil {
		return MachineState{}, err
	}
	st.Engine = est

	if m.ooo != nil {
		ost := m.ooo.State()
		st.OoO = &ost
		st.Loads = loadRes.Loads()
	} else {
		ist := m.ino.State()
		st.InOrder = &ist
	}
	if m.mech != nil {
		ms, ok := m.mech.(core.Snapshotter)
		if !ok {
			return MachineState{}, fmt.Errorf("runner: mechanism %s has no snapshot support", m.opts.Mechanism)
		}
		st.Mech = ms.SnapState()
	}
	if m.gen != nil {
		gs := m.gen.State()
		st.Stream.Gen = &gs
	} else if m.tf != nil {
		st.Stream.TraceRec = m.tf.Count()
	}
	return st, nil
}

// restoreState overwrites the machine's full mutable state from a
// snapshot taken on an identically-configured machine. It is a full
// overwrite — the engine is reset, caches, memory, core and mechanism
// replace every mutable field — so restoring into a machine that
// already ran a measurement is equivalent to restoring into a fresh
// one, which is what lets a campaign worker reuse one machine arena
// per prefix group.
func (m *Machine) restoreState(st *MachineState) error {
	if (st.OoO != nil) == (st.InOrder != nil) {
		return fmt.Errorf("runner: snapshot must hold exactly one core state")
	}
	if (st.OoO != nil) != (m.ooo != nil) {
		return fmt.Errorf("runner: snapshot core kind does not match the machine")
	}
	tail := func(ref sim.OpRef) (any, bool) {
		switch ref.Kind {
		case opRefCore:
			if m.ooo != nil {
				return m.ooo, true
			}
			return m.ino, true
		case opRefMech:
			if m.mech != nil {
				return m.mech, true
			}
		}
		return nil, false
	}
	next := tail
	var loadRest *cpu.LoadRestorer
	if m.ooo != nil {
		loadRest = m.ooo.NewLoadRestorer(st.Loads)
		next = func(ref sim.OpRef) (any, bool) {
			if v, ok := loadRest.Val(ref); ok {
				return v, true
			}
			return tail(ref)
		}
	}
	rest := m.h.NewRestorer(&st.Hier, next)
	if err := m.eng.Restore(st.Engine, rest.Val); err != nil {
		return err
	}
	if err := rest.Apply(); err != nil {
		return err
	}
	if m.ooo != nil {
		if err := m.ooo.SetState(*st.OoO); err != nil {
			return err
		}
	} else {
		m.ino.SetState(*st.InOrder)
	}
	if m.mech != nil {
		ms, ok := m.mech.(core.Snapshotter)
		if !ok {
			return fmt.Errorf("runner: mechanism %s has no snapshot support", m.opts.Mechanism)
		}
		if err := ms.RestoreState(st.Mech); err != nil {
			return err
		}
	} else if st.Mech != nil {
		return fmt.Errorf("runner: snapshot holds %T mechanism state, machine runs Base", st.Mech)
	}
	if m.gen != nil {
		if st.Stream.Gen == nil {
			return fmt.Errorf("runner: snapshot holds no generator cursor")
		}
		if err := m.gen.SetState(*st.Stream.Gen); err != nil {
			return err
		}
	} else if m.tf != nil {
		if err := m.tf.SeekRecord(st.Stream.TraceRec); err != nil {
			return err
		}
	}
	return nil
}

// RunPrefixContext simulates one warm-up prefix (skip + warm-up) and
// captures the machine at the warm-up boundary. The returned
// checkpoint serves RunFromCheckpoint for any options sharing the
// prefix fingerprint whose measured budget exceeds MinInsts.
func RunPrefixContext(ctx context.Context, opts Options) (*Checkpoint, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Insts == 0 {
		opts.Insts = defaultInsts
	}
	if opts.Warmup == 0 {
		return nil, fmt.Errorf("runner: a warm-state checkpoint needs Warmup > 0")
	}
	m, err := newMachine(ctx, opts, true, false)
	if err != nil {
		return nil, err
	}
	defer m.Close()

	ck := &Checkpoint{Version: CheckpointVersion, Prefix: opts.PrefixCanonical()}
	m.host.SetWarmup(opts.Warmup, func(cycles uint64) { ck.Warm = m.warmStats(cycles) })
	var cres cpu.Result
	if m.ooo != nil {
		// Fetch runs unbounded and the core stops at the first loop
		// boundary past the warm-up commit — the exact machine state a
		// live measured run passes through, for any measured budget
		// beyond the fetch horizon.
		m.ooo.SetStop(opts.Warmup)
		cres = m.ooo.Run(^uint64(0))
		m.ooo.SetStop(0)
	} else {
		cres = m.ino.Run(opts.Warmup)
	}
	if cres.Insts < opts.Warmup {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if m.traceDone != nil {
			if err := m.traceDone(); err != nil {
				return nil, fmt.Errorf("runner: %s: %w", opts.Workload.TracePath, err)
			}
		}
		return nil, fmt.Errorf("runner: stream ended after %d of %d warm-up instructions (skip=%d)",
			cres.Insts, opts.Warmup, opts.Skip)
	}
	st, err := m.captureState()
	if err != nil {
		return nil, err
	}
	ck.Machine = st
	if st.OoO != nil {
		ck.MinInsts = st.OoO.Fetched - opts.Warmup
	}
	return ck, nil
}

// NewCheckpointMachine builds a machine wired for checkpoint restores:
// identical to a cold machine except the stream is left at its origin
// (the snapshot positions it). A campaign worker keeps one per prefix
// group and restores into it for every cell, so the arena — cache
// arrays, calendar nodes, window slots — is paid for once.
func NewCheckpointMachine(ctx context.Context, opts Options) (*Machine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Insts == 0 {
		opts.Insts = defaultInsts
	}
	m, err := newMachine(ctx, opts, false, true)
	if err != nil {
		return nil, err
	}
	m.prefix = opts.PrefixCanonical()
	return m, nil
}

// RunFromCheckpoint restores the checkpoint into the machine and runs
// the measurement phase. The options must share the machine's prefix
// (only the measured budget may differ).
func (m *Machine) RunFromCheckpoint(ctx context.Context, opts Options, ck *Checkpoint) (Result, error) {
	return m.RunFromCheckpointPrefix(ctx, opts, opts.PrefixCanonical(), ck)
}

// RunFromCheckpointPrefix is RunFromCheckpoint for a caller that
// already holds prefix, the options' PrefixCanonical form: a campaign
// renders it once per cell at plan time, so a steady-state restore
// formats nothing. The checkpoint and the machine must both carry
// exactly this prefix.
func (m *Machine) RunFromCheckpointPrefix(ctx context.Context, opts Options, prefix string, ck *Checkpoint) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if opts.Insts == 0 {
		opts.Insts = defaultInsts
	}
	if opts.Interval > 0 && opts.IntervalSink != nil {
		// Interval telemetry emits boundaries during warm-up; a
		// restored run skips the warm-up, so the series cannot be
		// reproduced. Sampled cells run cold.
		return Result{}, fmt.Errorf("runner: interval telemetry needs a cold run: %w", ErrCheckpointUnusable)
	}
	if ck.Version != CheckpointVersion {
		return Result{}, fmt.Errorf("runner: checkpoint version %d, want %d: %w", ck.Version, CheckpointVersion, ErrCheckpointUnusable)
	}
	if ck.Prefix != prefix {
		return Result{}, fmt.Errorf("runner: checkpoint prefix mismatch: %w", ErrCheckpointUnusable)
	}
	if m.prefix != prefix {
		return Result{}, fmt.Errorf("runner: machine prefix does not match the requested options: %w", ErrCheckpointUnusable)
	}
	if m.ooo != nil && opts.Insts <= ck.MinInsts {
		return Result{}, fmt.Errorf("runner: measured budget %d is inside the checkpoint fetch horizon %d: %w",
			opts.Insts, ck.MinInsts, ErrCheckpointUnusable)
	}
	if err := m.restoreState(&ck.Machine); err != nil {
		return Result{}, err
	}
	if m.cancel != nil {
		// Re-aim a reused machine's stream at this cell's context (the
		// poll counter is observability only; resetting it keeps the
		// cadence identical across reuses).
		m.cancel.ctx = ctx
		m.cancel.n = 0
	}
	if m.ooo != nil {
		m.ooo.SetStop(0)
	}
	m.host.SetWarmup(0, nil)
	m.opts.Insts = opts.Insts
	total := opts.Warmup + opts.Insts
	cres := m.host.Run(total)
	return m.finish(ctx, ck.Warm, cres, total)
}

// RunFromCheckpointContext restores a checkpoint into a fresh machine
// and runs the measurement phase.
func RunFromCheckpointContext(ctx context.Context, opts Options, ck *Checkpoint) (Result, error) {
	m, err := NewCheckpointMachine(ctx, opts)
	if err != nil {
		return Result{}, err
	}
	defer m.Close()
	return m.RunFromCheckpoint(ctx, opts, ck)
}

// CaptureStreamContext captures the post-skip workload cursor without
// building a machine. For recorded traces the cursor is the skip count
// itself; for synthetic workloads the generator is stepped through the
// skipped instructions once and its state captured.
func CaptureStreamContext(ctx context.Context, opts Options) (*StreamCheckpoint, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc := &StreamCheckpoint{Version: CheckpointVersion, Key: opts.StreamCanonical()}
	if opts.Workload != nil && opts.Workload.TracePath != "" {
		sc.State.TraceRec = opts.Skip
		return sc, nil
	}
	var gen *workload.Generator
	if opts.Workload != nil {
		stream, _, _, _, err := opts.Workload.open(opts.Seed)
		if err != nil {
			return nil, err
		}
		gen = stream.(*workload.Generator)
	} else {
		g, err := workload.New(opts.Bench, opts.Seed)
		if err != nil {
			return nil, err
		}
		gen = g
	}
	var inst trace.Inst
	for i := uint64(0); i < opts.Skip; i++ {
		if i&8191 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !gen.Next(&inst) {
			return nil, fmt.Errorf("runner: stream ended after %d of %d skipped instructions", i, opts.Skip)
		}
	}
	gs := gen.State()
	sc.State.Gen = &gs
	return sc, nil
}

// RunWithStreamContext runs a full simulation (warm-up and all) with
// the skip phase replaced by the captured cursor. The run is
// bit-identical to a cold one — positioning the stream by state
// restore and by consuming Skip instructions land the source on the
// same instruction — so, unlike machine-checkpoint restores, interval
// telemetry is supported.
func RunWithStreamContext(ctx context.Context, opts Options, sc *StreamCheckpoint) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if opts.Insts == 0 {
		opts.Insts = defaultInsts
	}
	if sc.Version != CheckpointVersion {
		return Result{}, fmt.Errorf("runner: stream checkpoint version %d, want %d: %w", sc.Version, CheckpointVersion, ErrCheckpointUnusable)
	}
	if key := opts.StreamCanonical(); sc.Key != key {
		return Result{}, fmt.Errorf("runner: stream checkpoint key mismatch: %w", ErrCheckpointUnusable)
	}
	m, err := newMachine(ctx, opts, false, false)
	if err != nil {
		return Result{}, err
	}
	defer m.Close()
	if m.gen != nil {
		if sc.State.Gen == nil {
			return Result{}, fmt.Errorf("runner: stream checkpoint holds no generator cursor")
		}
		if err := m.gen.SetState(*sc.State.Gen); err != nil {
			return Result{}, err
		}
	} else if m.tf != nil {
		if err := m.tf.SeekRecord(sc.State.TraceRec); err != nil {
			return Result{}, err
		}
	}
	return m.runMeasured(ctx, opts)
}
