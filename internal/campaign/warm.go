package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"microlib/internal/runner"
)

// Warm turns on warm-state checkpointing for a Scheduler: cells that
// share a warm-up prefix (same workload, seed, skip, warm-up and
// machine configuration — everything but the measured budget) pay for
// the prefix once. The first cell of a group simulates skip + warm-up
// and snapshots the machine at the warm-up boundary; every other cell
// restores the snapshot into its worker's reused machine arena and
// runs only its measurement phase. Restored cells are bit-identical
// to cold runs, so warm execution changes no result, fingerprint or
// cache entry — only wall-clock time and the order cells start in.
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
	// rebuild counters stay readable after the run.
	arenas []*warmArena
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

// prepare indexes the plan's prefix groups and returns the order to
// dispatch the cells in: first the first cell of every prefix group,
// in plan order, so prefixes still build in parallel across workers;
// then the remaining cells of each group back to back, groups in
// first-appearance order, so a worker's arena serves a whole run of
// cells sharing its machine. Cells that cannot run warm keep their
// plan order among the first cells. sampled reports that the
// scheduler records interval telemetry, which only cold runs can.
//
// Duplicate plan cells (same fingerprint) are dispatched once by the
// scheduler, so they count once here too. Cells built outside NewPlan
// get their prefix identity here.
func (w *Warm) prepare(cells []Cell, sampled bool) []Cell {
	w.flights = make(map[string]*ckptFlight)
	w.groups = make(map[string]int)
	w.arenas = nil
	if sampled {
		return cells
	}
	ids := make([]prefixID, len(cells))
	seen := make(map[string]bool, len(cells))
	for i, c := range cells {
		if c.Opts.Warmup == 0 {
			continue
		}
		ids[i] = c.prefix
		if ids[i].key == "" {
			ids[i] = newPrefixID(c.Opts.PrefixCanonical())
		}
		if !seen[c.Key] {
			seen[c.Key] = true
			w.groups[ids[i].key]++
		}
	}

	order := make([]int, 0, len(cells))
	rest := make(map[string][]int)
	var groups []string
	for i, c := range cells {
		c.prefix = ids[i]
		k := w.key(c, false)
		if k == "" {
			order = append(order, i)
			continue
		}
		if _, started := rest[k]; started {
			rest[k] = append(rest[k], i)
			continue
		}
		rest[k] = nil
		groups = append(groups, k)
		order = append(order, i)
	}
	if len(groups) == 0 {
		return cells // nothing runs warm
	}
	for _, k := range groups {
		order = append(order, rest[k]...)
	}
	out := make([]Cell, len(order))
	for j, i := range order {
		out[j] = cells[i]
		out[j].prefix = ids[i]
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

// newArena returns a worker's machine arena for the current run.
func (w *Warm) newArena() *warmArena {
	a := &warmArena{}
	w.mu.Lock()
	w.arenas = append(w.arenas, a)
	w.mu.Unlock()
	return a
}

// checkpoint returns the group's checkpoint, building it exactly once
// per campaign run. A deterministic build failure is cached on the
// flight so later cells of the group skip straight to their cold runs;
// a context-canceled build is forgotten so a later cell (with a fresh
// per-cell deadline) can try again.
func (w *Warm) checkpoint(ctx context.Context, s *Scheduler, key string, opts runner.Options) (*runner.Checkpoint, error) {
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

	f.ck, f.err = w.build(ctx, s, key, opts)
	if f.err != nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
		w.mu.Lock()
		delete(w.flights, key)
		w.mu.Unlock()
	}
	close(f.done)
	return f.ck, f.err
}

// build produces the checkpoint for one prefix: from the store when a
// valid entry exists, by simulating the prefix otherwise. The prefix
// run is recover-protected — a capture panic degrades the group to
// cold runs (where the cold path will reproduce and classify it per
// cell) instead of killing the worker.
func (w *Warm) build(ctx context.Context, s *Scheduler, key string, opts runner.Options) (ck *runner.Checkpoint, err error) {
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
	ck, err = runner.RunPrefixContext(ctx, opts)
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

// warmArena is a worker's reused machine: checkpoint restores fully
// overwrite the mutable state, so one machine serves every cell of a
// prefix group without reallocating caches, calendar or window.
type warmArena struct {
	prefix string // fingerprint of the machine's prefix
	m      *runner.Machine
	// builds counts machine builds per prefix fingerprint. prepare's
	// dispatch order keeps it at two or fewer per group on one worker.
	builds map[string]int
}

// run restores the checkpoint into the arena's machine — rebuilding it
// only when the worker moved to a different prefix group — and runs the
// cell's measurement phase. Recover-protected: a panic on the warm path
// becomes an error, the caller drops the arena and the cell falls back
// to the cold path, which reproduces and classifies any real fault.
func (a *warmArena) run(ctx context.Context, c Cell, opts runner.Options, ck *runner.Checkpoint) (res runner.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = runner.Result{}, &CellError{Kind: KindPanic, Msg: fmt.Sprint("warm restore panic: ", r)}
		}
	}()
	if a.m == nil || a.prefix != c.prefix.key {
		a.drop()
		m, merr := runner.NewCheckpointMachine(ctx, opts)
		if merr != nil {
			return runner.Result{}, merr
		}
		a.m, a.prefix = m, c.prefix.key
		if a.builds == nil {
			a.builds = make(map[string]int)
		}
		a.builds[c.prefix.key]++
	}
	canon := c.prefix.canon
	if canon == "" {
		canon = opts.PrefixCanonical()
	}
	return a.m.RunFromCheckpointPrefix(ctx, opts, canon, ck)
}

// drop releases the arena's machine (if any).
func (a *warmArena) drop() {
	if a.m != nil {
		a.m.Close()
		a.m = nil
		a.prefix = ""
	}
}

// warmAttempt tries to serve one cell from a warm checkpoint. ok means
// the cell ran warm and full is its (bit-identical) result; !ok means
// the cell must run cold — because it is ineligible, the checkpoint
// could not be built, or the restore failed. Failures on this path are
// never surfaced as cell failures: the cold run either succeeds or
// reproduces the fault with its proper classification. (If the context
// is already dead, the cold path's own entry check returns its error
// immediately, so falling through costs nothing.)
func (s *Scheduler) warmAttempt(ctx context.Context, cell Cell, opts runner.Options, arena *warmArena) (runner.Result, bool) {
	w := s.Warm
	if w == nil || arena == nil {
		return runner.Result{}, false
	}
	key := w.key(cell, opts.Interval > 0 && opts.IntervalSink != nil)
	if key == "" {
		return runner.Result{}, false
	}
	ck, err := w.checkpoint(ctx, s, key, opts)
	if err != nil {
		s.emit(Event{Ev: EvPrefix, Op: "miss", Key: cell.Key})
		return runner.Result{}, false
	}
	full, err := arena.run(ctx, cell, opts, ck)
	if err != nil {
		// The machine may hold a half-restored state; rebuild next time.
		arena.drop()
		s.emit(Event{Ev: EvPrefix, Op: "miss", Key: cell.Key})
		if !errors.Is(err, runner.ErrCheckpointUnusable) && ctx.Err() == nil {
			s.Degrade(Degradation{Op: "warm.restore", Key: cell.Key, Err: err})
		}
		return runner.Result{}, false
	}
	return full, true
}
