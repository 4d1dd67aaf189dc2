package campaign

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"microlib/internal/runner"
)

// Warm turns on warm-state checkpointing for a Scheduler: cells that
// share a warm-up prefix (same workload, seed, skip, warm-up and
// machine configuration — everything but the measured budget) pay for
// the prefix once. The first cell of a group simulates skip + warm-up
// and snapshots the machine at the warm-up boundary; every other cell
// restores the snapshot into its worker's reused machine arena and
// runs only its measurement phase. A group's cells run in ascending
// budget, and each leaves a rung on its worker's machine: a mid-run
// checkpoint just short of its budget, which the next, larger budget
// restores instead of the warm-up snapshot (see
// runner.Machine.RunFromCheckpointPrefix). A group thus simulates its
// warm-up plus its largest budget, not the sum of its budgets.
// Restored cells are bit-identical to cold runs, so warm execution
// changes no result, fingerprint or cache entry — only wall-clock time
// and the order cells start in.
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

	mu      sync.Mutex
	flights map[string]*ckptFlight
	// groups counts distinct plan cells per prefix fingerprint; written
	// once by prepare before the workers start, read-only after.
	groups map[string]int
	// arenas are the current run's worker arenas, kept so their
	// build counters stay readable after the run.
	arenas []*arena
}

// NewWarm returns a warm-checkpointing policy. store may be nil for
// in-memory-only operation.
func NewWarm(store *CheckpointStore) *Warm {
	return &Warm{Store: store}
}

// ckptFlight is the singleflight slot for one prefix fingerprint: the
// first cell to need the checkpoint builds it, concurrent cells of the
// same group wait on done instead of burning workers on identical
// prefixes.
type ckptFlight struct {
	done chan struct{}
	ck   *runner.Checkpoint
	err  error
}

// prepare indexes the plan's prefix groups for a run and returns the
// cells with their prefix identity set: cells built outside NewPlan
// get it here, in a copy. sampled reports that the scheduler records
// interval telemetry, which only cold runs can; nothing is indexed
// then. Duplicate plan cells (same fingerprint) are dispatched once by
// the scheduler, so they count once here too.
func (w *Warm) prepare(cells []Cell, sampled bool) []Cell {
	w.flights = make(map[string]*ckptFlight)
	w.groups = make(map[string]int)
	w.arenas = nil
	if sampled {
		return cells
	}
	out, cloned := cells, false
	seen := make(map[string]bool, len(cells))
	for i, c := range cells {
		if c.Opts.Warmup == 0 {
			continue
		}
		if c.prefix.key == "" {
			if !cloned {
				out, cloned = slices.Clone(cells), true
			}
			out[i].prefix = newPrefixID(c.Opts.PrefixCanonical())
		}
		if !seen[c.Key] {
			seen[c.Key] = true
			w.groups[out[i].prefix.key]++
		}
	}
	return out
}

// key returns the cell's prefix fingerprint if it is worth running
// warm, or "" for the cold path. Sampled cells always run cold: the
// warm-up portion of an interval series cannot be reproduced from a
// post-warm-up snapshot.
func (w *Warm) key(c Cell, sampled bool) string {
	if c.Opts.Warmup == 0 || sampled || c.Opts.Interval > 0 && c.Opts.IntervalSink != nil {
		return ""
	}
	if w.Store == nil && w.groups[c.prefix.key] < 2 {
		return ""
	}
	return c.prefix.key
}

// track keeps a worker's arena for the current run, so its build
// counters stay readable after the run.
func (w *Warm) track(a *arena) {
	w.mu.Lock()
	w.arenas = append(w.arenas, a)
	w.mu.Unlock()
}

// checkpoint returns the group's checkpoint, building it exactly once
// per campaign run. A deterministic build failure is cached on the
// flight so later cells of the group skip straight to their cold runs;
// a context-canceled build is forgotten so a later cell (with a fresh
// per-cell deadline) can try again.
func (w *Warm) checkpoint(ctx context.Context, s *Scheduler, key string, opts runner.Options, a *arena) (*runner.Checkpoint, error) {
	w.mu.Lock()
	if f, ok := w.flights[key]; ok {
		w.mu.Unlock()
		select {
		case <-f.done:
			return f.ck, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &ckptFlight{done: make(chan struct{})}
	w.flights[key] = f
	w.mu.Unlock()

	f.ck, f.err = w.build(ctx, s, key, opts, a)
	if f.err != nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
		w.mu.Lock()
		delete(w.flights, key)
		w.mu.Unlock()
	}
	close(f.done)
	return f.ck, f.err
}

// build produces the checkpoint for one prefix: from the store when a
// valid entry exists, by simulating the prefix on the building
// worker's arena otherwise. The prefix run is recover-protected — a
// capture panic degrades the group to cold runs (where the cold path
// will reproduce and classify it per cell) instead of killing the
// worker.
func (w *Warm) build(ctx context.Context, s *Scheduler, key string, opts runner.Options, a *arena) (ck *runner.Checkpoint, err error) {
	if w.Store != nil {
		if ck, ok := w.Store.Get(key); ok {
			return ck, nil
		}
	}
	defer func() {
		if r := recover(); r != nil {
			ck, err = nil, &CellError{Kind: KindPanic, Msg: fmt.Sprint("prefix capture panic: ", r)}
		}
	}()
	ck, err = a.capture(ctx, key, opts)
	if err != nil {
		return nil, err
	}
	s.emit(Event{Ev: EvPrefix, Op: "run", Key: key})
	if w.Store != nil {
		if perr := w.Store.Put(key, ck); perr != nil {
			// Unpersisted checkpoints degrade the next campaign to a
			// prefix re-run, never this one's results.
			s.Degrade(Degradation{Op: "ckpt.put", Key: key, Err: perr})
		}
	}
	return ck, nil
}

// warmAttempt tries to serve one cell from a warm checkpoint. ok means
// the cell ran warm and full is its (bit-identical) result; !ok means
// the cell must run cold — because it is ineligible, the checkpoint
// could not be built, or the restore failed. Failures on this path are
// never surfaced as cell failures: the cold run either succeeds or
// reproduces the fault with its proper classification. (If the context
// is already dead, the cold path's own entry check returns its error
// immediately, so falling through costs nothing.)
func (s *Scheduler) warmAttempt(ctx context.Context, cell Cell, opts runner.Options, a *arena) (runner.Result, bool) {
	w := s.Warm
	if w == nil {
		return runner.Result{}, false
	}
	key := w.key(cell, opts.Interval > 0 && opts.IntervalSink != nil)
	if key == "" {
		return runner.Result{}, false
	}
	ck, err := w.checkpoint(ctx, s, key, opts, a)
	if err != nil {
		s.emit(Event{Ev: EvPrefix, Op: "miss", Key: cell.Key})
		return runner.Result{}, false
	}
	full, rung, err := a.restore(ctx, cell, opts, ck)
	if err != nil {
		// The machine may hold a half-restored state: keep it only as
		// a spare, so the next cell builds a fresh one from its storage.
		a.prefix = ""
		s.emit(Event{Ev: EvPrefix, Op: "miss", Key: cell.Key})
		if !errors.Is(err, runner.ErrCheckpointUnusable) && ctx.Err() == nil {
			s.Degrade(Degradation{Op: "warm.restore", Key: cell.Key, Err: err})
		}
		return runner.Result{}, false
	}
	if rung {
		s.emit(Event{Ev: EvPrefix, Op: "rung", Key: cell.Key})
	}
	return full, true
}
