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
	"microlib/internal/workload"
)

// This file implements warm-state checkpointing: a campaign pays for
// each distinct warm-up prefix once, snapshots the whole simulated
// machine at the warm-up boundary, and forks the measurement phase of
// every cell that shares the prefix from the snapshot. A checkpoint
// (Arena.Capture) captures the full machine — calendar, caches,
// memory, core, mechanism, stream cursor — keyed by PrefixFingerprint;
// cells sharing it differ only in the measured budget. There is one
// restore, Machine.restore, into a machine holding the prefix; an
// arena (Arena.Restore) builds one only when its machine holds another.
//
// A restore is bit-identical to a live run: the restored engine
// preserves the (when, seq) event order and its own sequence counter,
// and every component overwrites its mutable state from plain data.
// Most components keep that data as they run, in one field of their
// snapshot type, and snapshot and restore it with statecopy; those
// whose state references in-flight operands (the engine, caches, the
// SDRAM queue, the hierarchy's pooled nodes) resolve the references
// through the operand domains below.
//
// Every restore also climbs a budget ladder. A live budget-N run and
// any longer run are the same machine until fetch reaches warm-up +
// N, which is the rule Checkpoint.MinInsts already encodes. So a
// restored run advances with fetch unbounded to a commit boundary
// short of its budget (warm-up + N − FetchReach on the out-of-order
// core, one instruction short on the scalar core), captures a rung
// there — a Checkpoint with the group's warm-up statistics and its own
// fetch horizon as MinInsts — and then finishes its budget. The
// warm-up capture and the rung share that advance and that capture
// (advance, capture). The machine's next run restores the rung when
// its budget exceeds the rung's horizon, and the warm-up checkpoint
// otherwise, so cells run in ascending budget simulate warm-up +
// max(N), not warm-up + ΣN. A rung is captured in place into the
// previous rung's buffers (cache line arrays, MSHR and queue slices,
// the event list, the window, the generator cursor, the mechanism's
// tables through core.Snapshotter.SnapState's prev), lives only in
// memory, on the arena, and is never written to a checkpoint store.
// An advance cut short drops the rung, and a rung that fails to
// restore falls back to the warm-up checkpoint.

// CheckpointVersion tags the serialized state layout. Bump it whenever
// any component's snapshot struct changes shape or meaning — a stale
// checkpoint must be discarded, never reinterpreted.
//
// v2: cpu.Result gained the per-reason retry counters
// (RetryPort/RetryStall/RetryMSHR), changing the gob shape of both
// cores' serialized state.
// v3: mem.BankState lost ActReadyMin, which nothing read or wrote (the
// tRC bound is recomputed from LastActAt), and dbcp.State lists only
// the used correlation-table entries, by index; stored v2 checkpoints
// are discarded as unusable and their prefixes re-run.
const CheckpointVersion = 3

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

	// mech names the mechanism whose snapshot Mech holds when this
	// process captured it; "" for a decoded or empty state. Not
	// serialized: it only lets a later capture into the same state
	// keep Mech for that mechanism (see Machine.mechSnapshot).
	mech string
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

// Committed returns the number of instructions the captured machine
// had committed: those a run restored from the checkpoint does not
// simulate.
func (ck *Checkpoint) Committed() uint64 {
	switch {
	case ck.Machine.OoO != nil:
		return ck.Machine.OoO.Res.Insts
	case ck.Machine.InOrder != nil:
		return ck.Machine.InOrder.Res.Insts
	}
	return 0
}

// opRefCore and opRefMech are the runner-level operand domains: the
// host core and the mechanism are singletons per machine, referenced
// by kind alone.
const (
	opRefCore = "cpu.core"
	opRefMech = "mech"
)

// captureState captures the machine's full mutable state into *st,
// overwriting all of it. Slices, tables and core states that st holds
// from an earlier capture are reused where their capacity suffices,
// so capturing again into a rung buffer allocates no table. The
// operand resolution chain is hierarchy (components and pooled
// request nodes) → OoO load nodes → runner singletons (host core,
// mechanism).
func (m *Machine) captureState(st *MachineState) error {
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
		loadRes = m.ooo.NewLoadResolver(st.Loads)
		next = func(v any) (sim.OpRef, bool) {
			if r, ok := loadRes.Ref(v); ok {
				return r, true
			}
			return tail(v)
		}
	}
	snap := m.h.NewSnapshotter(&st.Hier, next)
	if err := snap.Capture(); err != nil {
		return err
	}
	if err := m.eng.SnapshotInto(&st.Engine, snap.Ref); err != nil {
		return err
	}

	if m.ooo != nil {
		if st.OoO == nil {
			st.OoO = new(cpu.OoOState)
		}
		m.ooo.StateInto(st.OoO)
		st.Loads = loadRes.Loads()
		st.InOrder = nil
	} else {
		if st.InOrder == nil {
			st.InOrder = new(cpu.InOrderState)
		}
		*st.InOrder = m.ino.State()
		st.OoO, st.Loads = nil, nil
	}
	prev := m.mechSnapshot(st)
	if m.mech != nil {
		ms, ok := m.mech.(core.Snapshotter)
		if !ok {
			return fmt.Errorf("runner: mechanism %s has no snapshot support", m.opts.Mechanism)
		}
		st.Mech = ms.SnapState(prev)
	} else {
		st.Mech = nil
	}
	gen := st.Stream.Gen
	st.Stream = StreamState{}
	if m.gen != nil {
		if gen == nil {
			gen = new(workload.GeneratorState)
		}
		m.gen.StateInto(gen)
		st.Stream.Gen = gen
	} else if m.tf != nil {
		st.Stream.TraceRec = m.tf.Count()
	}
	return nil
}

// mechSnapshot returns the earlier mechanism snapshot a capture into
// st should be built in: st's own when it holds this machine's
// mechanism's, else one that a capture into another state moved out
// for this mechanism. A snapshot of another mechanism is moved out of
// st and kept for that mechanism's next capture into any state, so a
// worker whose warm-up checkpoint and rung alternate mechanisms grows
// each mechanism's snapshots once, not once per group. st is left
// marked as this machine's mechanism's.
func (m *Machine) mechSnapshot(st *MachineState) any {
	name := m.opts.Mechanism
	if m.mech == nil {
		name = ""
	}
	if st.mech == name {
		return st.Mech
	}
	a := m.arena
	if st.mech != "" && st.Mech != nil {
		if a.snaps == nil {
			a.snaps = map[string][]any{}
		}
		a.snaps[st.mech] = append(a.snaps[st.mech], st.Mech)
	}
	st.Mech, st.mech = nil, name
	kept := a.snaps[name]
	if len(kept) == 0 {
		return nil
	}
	prev := kept[len(kept)-1]
	kept[len(kept)-1] = nil
	a.snaps[name] = kept[:len(kept)-1]
	return prev
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
// captures the machine at the warm-up boundary, on a fresh arena (see
// Arena.Capture). The returned checkpoint serves RunFromCheckpoint for
// any options sharing the prefix fingerprint whose measured budget
// exceeds MinInsts.
func RunPrefixContext(ctx context.Context, opts Options) (*Checkpoint, error) {
	a := new(Arena)
	defer a.Close()
	return a.Capture(ctx, opts)
}

// NewCheckpointMachine builds a machine wired for checkpoint restores
// of the options' prefix, on a fresh arena: identical to a cold
// machine except the stream is left at its origin (the snapshot
// positions it). The caller owns the machine and must Close it.
func NewCheckpointMachine(ctx context.Context, opts Options) (*Machine, error) {
	m, err := new(Arena).build(ctx, opts)
	if err != nil {
		return nil, err
	}
	m.prefix = opts.PrefixCanonical()
	return m, nil
}

// RunFromCheckpoint restores the checkpoint into the machine and runs
// the measurement phase, climbing the budget ladder (see restore). The
// checkpoint and the machine must both hold the options' prefix.
func (m *Machine) RunFromCheckpoint(ctx context.Context, opts Options, ck *Checkpoint) (Result, error) {
	prefix := opts.PrefixCanonical()
	if m.prefix != prefix {
		return Result{}, fmt.Errorf("runner: machine prefix does not match the requested options: %w", ErrCheckpointUnusable)
	}
	res, _, _, err := m.restore(ctx, opts, prefix, ck)
	return res, err
}

// restore is the one restore: it restores the checkpoint into a
// machine holding prefix and runs the measurement phase. prefix is the
// options' PrefixCanonical form: a campaign renders it once per cell
// at plan time, so a steady-state restore formats nothing. The
// checkpoint must carry exactly this prefix (only the measured budget
// may differ); a restore that fails or panics leaves the machine
// holding no prefix.
//
// It also climbs the budget ladder. Before its last stretch the run
// captures a rung, a mid-run checkpoint of the prefix, into the
// arena's rung buffer; a later run whose budget lies beyond the rung's
// fetch horizon restores the rung instead of ck and simulates only the
// instructions past it. Cells run in ascending budget thus simulate
// their group's largest budget once, not every budget in full. at is
// the commit count the run was restored at, and rung reports whether
// that was a rung's.
func (m *Machine) restore(ctx context.Context, opts Options, prefix string, ck *Checkpoint) (res Result, at uint64, rung bool, err error) {
	opts, err = ready(ctx, opts)
	if err != nil {
		return Result{}, 0, false, err
	}
	if opts.Interval > 0 && opts.IntervalSink != nil {
		// Interval telemetry emits boundaries during warm-up; a
		// restored run skips the warm-up, so the series cannot be
		// reproduced. Sampled cells run cold.
		return Result{}, 0, false, fmt.Errorf("runner: interval telemetry needs a cold run: %w", ErrCheckpointUnusable)
	}
	if ck.Version != CheckpointVersion {
		return Result{}, 0, false, fmt.Errorf("runner: checkpoint version %d, want %d: %w", ck.Version, CheckpointVersion, ErrCheckpointUnusable)
	}
	if ck.Prefix != prefix {
		return Result{}, 0, false, fmt.Errorf("runner: checkpoint prefix mismatch: %w", ErrCheckpointUnusable)
	}
	if opts.Insts <= ck.MinInsts {
		return Result{}, 0, false, fmt.Errorf("runner: measured budget %d is inside the checkpoint fetch horizon %d: %w",
			opts.Insts, ck.MinInsts, ErrCheckpointUnusable)
	}
	// Until a restore completes the machine may be half-written, so it
	// holds no prefix: a restore that fails or panics leaves it so.
	m.prefix = ""
	src := ck
	if r := m.arena.rung; r != nil && r.ok && opts.Insts > r.ck.MinInsts {
		if m.restoreState(&r.ck.Machine) == nil {
			src = &r.ck
		} else {
			// A rung that will not restore is dropped; the warm-up
			// checkpoint overwrites whatever it left.
			r.ok = false
		}
	}
	if src == ck {
		if err := m.restoreState(&ck.Machine); err != nil {
			return Result{}, 0, false, err
		}
	}
	m.prefix = prefix
	at, rung = m.host.Committed(), src != ck
	// Re-aim the stream at this run's context (the poll counter is
	// observability only; resetting it keeps the cadence identical
	// across reuses).
	m.cancel.ctx, m.cancel.n = ctx, 0
	if m.ooo != nil {
		m.ooo.SetStop(0)
	}
	m.host.SetWarmup(0, nil)
	m.opts.Insts = opts.Insts
	if err := m.climb(src.Warm); err != nil {
		return Result{}, 0, false, err
	}
	total := opts.Warmup + opts.Insts
	cres := m.host.Run(total)
	res, err = m.finish(ctx, src.Warm, cres, total)
	return res, at, rung, err
}

// advance runs the machine with fetch unbounded until it has committed
// stop instructions, and returns the count committed: short of stop
// only when the stream ended or the context was canceled first. The
// out-of-order core stops at the first loop boundary past stop — the
// exact state a live run passes through for any budget whose fetch
// cap lies beyond the fetch horizon there; the scalar core, which
// fetches only what it commits, stops at stop exactly.
func (m *Machine) advance(stop uint64) uint64 {
	if m.ooo != nil {
		m.ooo.SetStop(stop)
		m.ooo.Run(^uint64(0))
		m.ooo.SetStop(0)
	} else {
		m.ino.Run(stop)
	}
	return m.host.Committed()
}

// capture captures the machine into ck as a checkpoint of its prefix
// with the given warm-up statistics. MinInsts is the fetch horizon
// past the warm-up boundary: the instructions fetched on the
// out-of-order core, those committed on the scalar core.
func (m *Machine) capture(ck *Checkpoint, warm WarmStats) error {
	if err := m.captureState(&ck.Machine); err != nil {
		return err
	}
	horizon := m.host.Committed()
	if ck.Machine.OoO != nil {
		horizon = ck.Machine.OoO.Fetched
	}
	ck.Version, ck.Prefix, ck.MinInsts, ck.Warm = CheckpointVersion, m.prefix, horizon-m.opts.Warmup, warm
	return nil
}

// climb advances a just-restored machine toward its budget and
// captures a rung there, for the next cell of the prefix group. A
// live budget-N run and any longer run are the same machine until
// fetch reaches warm-up + N, so the machine advances with fetch
// unbounded (as a prefix run does) and stops at a commit boundary
// whose fetch horizon is still short of that: FetchReach short of the
// budget on the out-of-order core, one instruction short on the
// scalar core, which fetches only what it commits. The rung keeps the
// group's warm-up statistics; its MinInsts is its own fetch horizon.
//
// A machine already at or past the boundary keeps its rung as is. An
// advance cut short (the context canceled or the stream ended) drops
// the rung; the run that follows ends exactly as the live run would.
func (m *Machine) climb(warm WarmStats) error {
	w, n := m.opts.Warmup, m.opts.Insts
	reach := uint64(1)
	if m.ooo != nil {
		reach = m.ooo.FetchReach()
	}
	if n <= reach || w+n-reach <= m.host.Committed() {
		return nil
	}
	a := m.arena
	if a.rung == nil {
		a.rung = new(rungBuffer)
	}
	r := a.rung
	r.ok = false
	if stop := w + n - reach; m.advance(stop) < stop {
		return nil
	}
	if err := m.capture(&r.ck, warm); err != nil {
		return nil // capturing only reads the machine: it runs on unladdered
	}
	if r.ck.MinInsts >= n {
		return fmt.Errorf("runner: rung fetch horizon %d reaches the budget %d: %w", r.ck.MinInsts, n, ErrCheckpointUnusable)
	}
	r.ok = true
	return nil
}

// rungBuffer is an arena's budget ladder: the rung, a mid-run
// checkpoint of its machine's prefix, valid while ok. Every machine
// the arena builds captures into it, so a campaign worker captures
// every rung into one set of buffers.
type rungBuffer struct {
	ck Checkpoint
	ok bool
}
