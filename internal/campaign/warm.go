package campaign

import (
	"context"
	"errors"
	"fmt"
	"time"

	"microlib/internal/runner"
)

// Warm turns on warm-state checkpointing for a Scheduler: cells that
// share a warm-up prefix (same workload, seed, skip, warm-up and
// machine configuration — everything but the measured budget) pay for
// the prefix once. Such a prefix group is one job: one worker runs its
// cells back to back in ascending budget. The first cell the cache
// does not serve simulates skip + warm-up and snapshots the machine at
// the warm-up boundary; every cell then restores the snapshot into the
// worker's machine arena and runs only its measurement phase. Each
// cell also leaves a rung on the machine: a mid-run checkpoint just
// short of its budget, which the next, larger budget restores instead
// of the warm-up snapshot (see runner.Machine.RunFromCheckpointPrefix).
// A group thus simulates its warm-up plus its largest budget, not the
// sum of its budgets. Restored cells are bit-identical to cold runs,
// so warm execution changes no result, fingerprint or cache entry —
// only wall-clock time and the order cells start in.
//
// The warm layer is strictly an accelerator: any failure on the warm
// path (corrupt stored checkpoint, budget inside the fetch horizon,
// version skew, a restore panic) degrades that cell to the ordinary
// cold path, it never fails the cell.
type Warm struct {
	// Store, when non-nil, persists checkpoints across campaign runs,
	// keyed by prefix fingerprint. With a store, even a group of one
	// cell captures its prefix — the next campaign sharing the prefix
	// starts warm. Without one, checkpoints live only for the run and
	// only groups of two or more cells warrant the capture overhead.
	Store *CheckpointStore
}

// NewWarm returns a warm-checkpointing policy. store may be nil for
// in-memory-only operation.
func NewWarm(store *CheckpointStore) *Warm {
	return &Warm{Store: store}
}

// checkpoint returns the job's checkpoint, building it at most once
// per job. A deterministic build failure is remembered so the job's
// later cells skip straight to their cold runs; a context-canceled
// build is not, so a later cell (with a fresh per-cell deadline) can
// try again.
func (s *Scheduler) checkpoint(ctx context.Context, j *job, opts runner.Options, a *arena) (*runner.Checkpoint, error) {
	if j.ck != nil || j.err != nil {
		return j.ck, j.err
	}
	ck, err := s.buildCheckpoint(ctx, j, opts, a)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return nil, err
	}
	j.ck, j.err = ck, err
	return ck, err
}

// buildCheckpoint produces the checkpoint for job j's prefix: from the
// store when a valid entry exists, by simulating the prefix on the
// worker's arena otherwise. A simulated prefix's wall time goes to
// j.capture and, with its instructions, to the prefix run event. The
// prefix run is recover-protected — a capture panic degrades the group
// to cold runs (where the cold path will reproduce and classify it per
// cell) instead of killing the worker.
func (s *Scheduler) buildCheckpoint(ctx context.Context, j *job, opts runner.Options, a *arena) (ck *runner.Checkpoint, err error) {
	key := j.key
	store := s.Warm.Store
	if store != nil {
		if ck, ok := store.Get(key); ok {
			return ck, nil
		}
	}
	t0 := time.Now()
	defer func() {
		if r := recover(); r != nil {
			j.capture += time.Since(t0)
			ck, err = nil, &CellError{Kind: KindPanic, Msg: fmt.Sprint("prefix capture panic: ", r)}
		}
	}()
	ck, err = a.capture(ctx, opts)
	wall := time.Since(t0)
	j.capture += wall
	if err != nil {
		return nil, err
	}
	s.emit(Event{Ev: EvPrefix, Op: "run", Key: key, Wall: wall, Insts: ck.Committed()})
	if store != nil {
		if perr := store.Put(key, ck); perr != nil {
			// Unpersisted checkpoints degrade the next campaign to a
			// prefix re-run, never this one's results.
			s.Degrade(Degradation{Op: "ckpt.put", Key: key, Err: perr})
		}
	}
	return ck, nil
}

// warmAttempt tries to serve one cell of job j from a warm checkpoint.
// ok means the cell ran warm: full is its (bit-identical) result and
// from the commit count its run was restored at. !ok means the cell
// must run cold — because its job is not a warm group, the checkpoint
// could not be built, or the restore failed. Failures on this path are
// never surfaced as cell failures: the cold run either succeeds or
// reproduces the fault with its proper classification. (If the context
// is already dead, the cold path's own entry check returns its error
// immediately, so falling through costs nothing.)
func (s *Scheduler) warmAttempt(ctx context.Context, j *job, cell Cell, opts runner.Options, a *arena) (full runner.Result, from uint64, ok bool) {
	if j.key == "" {
		return runner.Result{}, 0, false
	}
	ck, err := s.checkpoint(ctx, j, opts, a)
	if err != nil {
		s.emit(Event{Ev: EvPrefix, Op: "miss", Key: cell.Key})
		return runner.Result{}, 0, false
	}
	full, rung, err := a.restore(ctx, cell, opts, ck)
	if err != nil {
		s.emit(Event{Ev: EvPrefix, Op: "miss", Key: cell.Key})
		if !errors.Is(err, runner.ErrCheckpointUnusable) && ctx.Err() == nil {
			s.Degrade(Degradation{Op: "warm.restore", Key: cell.Key, Err: err})
		}
		return runner.Result{}, 0, false
	}
	if rung {
		s.emit(Event{Ev: EvPrefix, Op: "rung", Key: cell.Key})
	}
	return full, a.m.RestoredAt(), true
}
