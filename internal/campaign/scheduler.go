package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"microlib/internal/core"
	"microlib/internal/fault"
	"microlib/internal/runner"
	"microlib/internal/telemetry"
)

// Progress reports one finished cell to the OnProgress callback.
type Progress struct {
	Done      int // cells finished so far, including this one
	Total     int
	Cell      Cell
	FromCache bool
	Err       error
	// Source tells where the result came from: "sim", "cache", or
	// "journal" (a deterministic failure replayed by a resumed run).
	Source string
	// Wall is the host wall-clock time the cell occupied a worker;
	// (near-)zero for cache hits and duplicate copies.
	Wall time.Duration
	// Insts is the number of instructions the cell simulated: warm-up
	// + measured for a cold run, only those past its restore point for
	// a warm one; zero for cache hits, duplicates and failures.
	// Insts/Wall is the cell's simulation throughput.
	Insts uint64
	// Attempts is how many retries the cell consumed before this
	// outcome (0 for first-try results).
	Attempts int
	// Warm marks a cell whose measurement phase ran from a restored
	// warm-state checkpoint (bit-identical to a cold run, minus the
	// skip and warm-up wall time).
	Warm bool
}

// CellCache serves and persists finished cells by fingerprint key.
// DiskCache is the persistent implementation, MemCache the
// in-process one, and LayeredCache chains them.
type CellCache interface {
	// Get returns the cached result for key, if present and intact.
	Get(key string) (CellResult, bool)
	// Put stores a successful result under its key.
	Put(res CellResult) error
}

// Scheduler executes plan cells on a bounded worker pool. The zero
// value runs with GOMAXPROCS workers and no cache.
type Scheduler struct {
	// Workers bounds concurrent simulations; <1 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, serves finished cells and persists new
	// ones, making interrupted or extended campaigns incremental.
	Cache CellCache
	// OnProgress, when non-nil, observes every finished cell. Called
	// serially under the scheduler's lock.
	OnProgress func(Progress)
	// OnStart, when non-nil, observes every distinct cell as a worker
	// picks it up (before the cache probe). Unlike OnProgress it is
	// called concurrently from the worker pool; duplicate copies of a
	// fingerprint are never started, so they only reach OnProgress.
	OnStart func(Cell)
	// Live, when non-nil, folds the run's events (and tracks busy
	// workers) for a metrics endpoint to scrape mid-run.
	Live *LiveStats
	// Interval, together with IntervalSink, samples every simulated
	// (not cached) cell at this cycle granularity and hands the
	// finished series to the sink — the per-cell time-series artifact
	// of a campaign. Sampling does not alter results or fingerprints.
	Interval     uint64
	IntervalSink func(Cell, []telemetry.Interval)
	// Warm, when non-nil, enables warm-state checkpointing: cells
	// sharing a warm-up prefix simulate it once and fork their
	// measurement phases from the snapshot (see Warm). Results are
	// bit-identical to cold runs. Sampled cells (Interval set) always
	// run cold.
	Warm *Warm

	// CellTimeout bounds each cell's wall time; a cell exceeding it is
	// canceled and recorded as a timeout failure (transient, so Retry
	// applies). 0 disables the deadline.
	CellTimeout time.Duration
	// Retry retries transient cell failures (timeouts) and cache
	// writes with capped exponential backoff. Deterministic failures
	// (model errors, panics) are never retried.
	Retry RetryPolicy
	// KnownFailures pre-resolves cells whose deterministic failure an
	// earlier run already recorded (resume reconstructs it from the
	// journal); they are served without re-simulating.
	KnownFailures map[string]CellResult
	// OnStall, when non-nil, receives the stall watchdog's flag (see
	// StallFactor). Called from the watchdog goroutine.
	OnStall func(StallReport)
	// StallFactor arms the campaign-level stall watchdog: when no cell
	// has finished for StallFactor × the median completed-cell wall
	// time (floored at StallMin), the campaign is flagged as stalled —
	// once per stall episode. 0 disables the watchdog.
	StallFactor float64
	// StallMin floors the stall threshold; defaults to 5s when the
	// watchdog is armed.
	StallMin time.Duration
	// Faults, when non-nil, arms the fault-injection points inside
	// the scheduler (cell.panic, cell.slow). Testing only.
	Faults *fault.Injector

	mu      sync.Mutex // orders every emitted event and guards stats
	stats   SchedulerStats
	stall   *stallWatch
	journal *JournalWriter
}

// emit hands one lifecycle event to every view of the run, in the
// order the events happen. Safe from any goroutine.
func (s *Scheduler) emit(e Event) {
	s.mu.Lock()
	s.emitLocked(e)
	s.mu.Unlock()
}

// emitLocked is emit for a caller already holding s.mu.
func (s *Scheduler) emitLocked(e Event) {
	s.stats.apply(e)
	if s.Live != nil {
		s.Live.apply(e)
	}
	if s.stall != nil {
		s.stall.apply(e)
	}
	if s.journal != nil {
		s.journal.apply(e)
	}
}

// Degrade records one non-fatal infrastructure failure as a degraded
// event. The scheduler calls it for its own cache-write failures;
// Execute also wires it as the disk cache's and checkpoint store's
// degradation sink. Safe from any goroutine.
func (s *Scheduler) Degrade(d Degradation) {
	s.emit(Event{Ev: EvDegraded, Op: d.Op, Key: d.Key, Err: d.Err})
}

// Run executes the cells and returns their results keyed by cell
// fingerprint. Cell simulation failures — including recovered panics
// and deadline timeouts — are recorded in the result map (Err set),
// classified and counted, not fatal. When ctx is canceled, no new
// cells start, in-flight simulations wind down without contributing
// results, and Run returns ctx's error alongside the results
// gathered so far — everything already simulated is in the cache, so
// a rerun resumes where the campaign stopped.
func (s *Scheduler) Run(ctx context.Context, cells []Cell) (map[string]CellResult, SchedulerStats, error) {
	workers := s.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) && len(cells) > 0 {
		workers = len(cells)
	}

	results := make(map[string]CellResult, len(cells))
	s.emit(Event{Ev: EvStart, Cells: len(cells), Workers: workers})
	stopStall := s.watchStalls()

	cells, jobs := s.dispatch(cells)
	ch := make(chan *job)
	var wg sync.WaitGroup
	tables := new(runner.MechTables)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One machine arena per worker: every build recycles the
			// previous machine's cache storage, and warm cells of a
			// prefix group restore into the same machine. The run's
			// mechanism tables are shared by all of them.
			a := &arena{tables: tables}
			defer a.close()
			for j := range ch {
				s.runJob(ctx, j, cells, a, results)
			}
		}()
	}

	// A plan may repeat a fingerprint across scenarios (a baseline
	// untouched by a parameter-set axis), anywhere in plan order.
	// Dispatching the copies would simulate the same cell on several
	// workers; feed each distinct key once and serve the copies from
	// the finished result afterwards.
	fed := map[string]bool{}
	var dups []Cell
feed:
	for _, j := range jobs {
		distinct := j.idx[:0]
		for _, i := range j.idx {
			if fed[cells[i].Key] {
				dups = append(dups, cells[i])
				continue
			}
			fed[cells[i].Key] = true
			distinct = append(distinct, i)
		}
		if len(distinct) == 0 {
			continue
		}
		j.idx = distinct
		select {
		case ch <- &j:
		case <-ctx.Done():
			break feed
		}
	}
	close(ch)
	wg.Wait()
	for _, c := range dups {
		res, ok := results[c.Key]
		if !ok {
			continue // first copy canceled: this one is missing too
		}
		if res.Err != "" {
			// A recorded failure is deterministic (transient ones are
			// not stored for sharing), so the copy shares it instead
			// of racing a doomed rerun onto a worker.
			s.finish(results, c, res, Event{Source: "sim", Err: &CellError{Kind: ErrKind(res.ErrKind), Msg: res.Err}})
		} else {
			s.finish(results, c, res, Event{Source: "cache"})
		}
	}
	// The watchdog stops before the end event, so no stall lands
	// after the run's footer.
	stopStall()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Cancellation that landed after the last cell finished did not
	// interrupt anything: the campaign is complete.
	err := ctx.Err()
	if err != nil && s.stats.Completed == s.stats.Total {
		err = nil
	}
	s.emitLocked(Event{Ev: EvEnd, Err: err})
	return results, s.stats, err
}

// runJob runs one job's cells back to back on a worker's arena, then
// hands the job's checkpoint back to the arena. No cell starts once
// the campaign is canceled.
//
//ml:worker
func (s *Scheduler) runJob(ctx context.Context, j *job, cells []Cell, a *arena, results map[string]CellResult) {
	defer a.release(j)
	for _, i := range j.idx {
		if ctx.Err() != nil {
			return
		}
		s.runCell(ctx, j, cells[i], a, results)
	}
}

// runCell executes one cell of job j end to end on a worker goroutine.
func (s *Scheduler) runCell(ctx context.Context, j *job, cell Cell, a *arena, results map[string]CellResult) {
	s.emit(Event{Ev: EvCellStart, Cell: cell})
	if s.OnStart != nil {
		s.OnStart(cell)
	}
	if s.Live != nil {
		// defer keeps the busy-worker gauge honest on every exit,
		// including the cancellation return that reports nothing else.
		s.Live.cellRunning(1)
		defer s.Live.cellRunning(-1)
	}
	if res, ok := s.KnownFailures[cell.Key]; ok {
		// A deterministic failure recorded by an earlier run: rerunning
		// the cell would fail the same way, so serve the recorded
		// failure (the resume counterpart of the duplicate-cell rule).
		err := &CellError{Kind: ErrKind(res.ErrKind), Msg: res.Err}
		s.finish(results, cell, res, Event{Source: "journal", Err: err})
		return
	}
	if s.Cache != nil {
		if res, ok := s.Cache.Get(cell.Key); ok {
			s.finish(results, cell, res, Event{Source: "cache"})
			return
		}
	}

	// Telemetry sampling goes on a local copy of the options so the
	// cell's fingerprint-carrying Opts stay untouched (the fields are
	// outside the fingerprint anyway, but a sink closure must never
	// leak into a shared Cell).
	opts := cell.Opts
	var ivs []telemetry.Interval
	if s.Interval > 0 && s.IntervalSink != nil {
		opts.Interval = s.Interval
		opts.IntervalSink = func(iv telemetry.Interval) { ivs = append(ivs, iv) }
	}

	var (
		full     runner.Result
		err      error
		wall     time.Duration
		capture  time.Duration
		attempts int
		from     uint64
	)
	for {
		ivs = ivs[:0] // a retried attempt starts a fresh series
		j.capture = 0
		t0 := time.Now()
		full, from, err = s.simulate(ctx, j, cell, opts, a)
		wall, capture = time.Since(t0), j.capture
		if err == nil {
			break
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The campaign (not the cell) was canceled: the cell
			// produced no usable measurement; leave it unrecorded for
			// the resumed run. A cell that finished just before
			// cancellation (err == nil) is kept and cached.
			return
		}
		kind := Classify(err)
		if !kind.Transient() || attempts >= s.Retry.Max {
			break
		}
		attempts++
		delay := s.Retry.Delay(attempts)
		s.emit(Event{Ev: EvRetry, Op: "cell", Cell: cell, Attempt: attempts, Err: err, Delay: delay})
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return // unrecorded: the resumed run retries it fresh
		}
	}

	var insts uint64
	if err == nil {
		// A warm cell simulated only the instructions past its
		// restore point; those before it were paid by the shared
		// prefix run or an earlier cell's ladder, not this cell's wall
		// time.
		insts = full.CPU.Insts - from
		if s.IntervalSink != nil && len(ivs) > 0 {
			s.IntervalSink(cell, ivs)
		}
	} else {
		err = asCellError(err)
	}

	res := toCellResult(cell, full, err)
	if err == nil && s.Cache != nil {
		// A failed Put degrades to recomputation next time; the
		// in-memory result is still good — but the degradation is
		// counted and journaled, not silently dropped.
		if perr := s.putWithRetry(ctx, cell, res); perr != nil {
			s.Degrade(Degradation{Op: "cache.put", Key: cell.Key, Err: perr})
		}
	}

	s.finish(results, cell, res, Event{Err: err, Source: "sim", Wall: wall, Capture: capture, Insts: insts, Attempts: attempts, Warm: from > 0})
}

// simulate runs one attempt of a cell under the per-cell deadline,
// converting a deadline cut into a typed timeout failure and a
// simulation panic (the OoO watchdog, a model bug) into a typed panic
// failure with its stack — the cell fails, the campaign continues.
// from is the commit count the attempt started at: 0 for a cold run,
// the restore point for one served from a warm-state checkpoint.
func (s *Scheduler) simulate(ctx context.Context, j *job, cell Cell, opts runner.Options, a *arena) (full runner.Result, from uint64, err error) {
	cctx := ctx
	if s.CellTimeout > 0 {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, s.CellTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &CellError{
				Kind:  KindPanic,
				Msg:   fmt.Sprintf("panic: %v", r),
				Stack: string(debug.Stack()),
			}
		}
	}()
	if s.Faults.Fire(fault.CellPanic, cell.Key) {
		panic(fmt.Sprintf("fault: injected panic in cell %s", cell.Key))
	}
	if s.Faults.Fire(fault.CellSlow, cell.Key) {
		select {
		case <-time.After(s.Faults.SlowFor):
		case <-cctx.Done():
		}
	}
	if full, from, ok := s.warmAttempt(cctx, j, cell, opts, a); ok {
		return full, from, nil
	}
	full, err = a.cold(cctx, opts)
	if err != nil && cctx.Err() != nil && ctx.Err() == nil {
		// The cell's own deadline cut it, not campaign cancellation.
		err = &CellError{Kind: KindTimeout, Msg: fmt.Sprintf("cell exceeded deadline %v", s.CellTimeout)}
	}
	return full, 0, err
}

// putWithRetry persists one result, retrying transient cache I/O per
// the retry policy; each re-Put is a retry event.
func (s *Scheduler) putWithRetry(ctx context.Context, cell Cell, res CellResult) error {
	err := s.Cache.Put(res)
	for attempt := 1; err != nil && attempt <= s.Retry.Max; attempt++ {
		delay := s.Retry.Delay(attempt)
		s.emit(Event{Ev: EvRetry, Op: "cache.put", Cell: cell, Attempt: attempt, Err: err, Delay: delay})
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return err
		}
		err = s.Cache.Put(res)
	}
	return err
}

// finish records one resolved cell: its result, its cell_done event
// (e carries the outcome) and the OnProgress call, all under the
// scheduler lock.
func (s *Scheduler) finish(results map[string]CellResult, cell Cell, res CellResult, e Event) {
	e.Ev, e.Cell = EvCellDone, cell
	s.mu.Lock()
	defer s.mu.Unlock()
	results[cell.Key] = res
	s.emitLocked(e)
	if s.OnProgress != nil {
		s.OnProgress(e.progress(s.stats))
	}
}

// stallWatch tracks campaign liveness: the wall times of completed
// cells (for the median) and the time of the last finish. Guarded by
// the scheduler lock; the cell counts come from the scheduler's fold.
type stallWatch struct {
	factor  float64
	min     time.Duration
	last    time.Time
	walls   []time.Duration
	flagged bool
}

func (w *stallWatch) apply(e Event) {
	if e.Ev != EvCellDone {
		return
	}
	w.last = time.Now()
	w.flagged = false // progress ends the stall episode
	if e.Wall > 0 {
		w.walls = append(w.walls, e.Wall)
	}
}

// check flags a stall once per episode; done and total are the run's
// finished and planned cells.
func (w *stallWatch) check(done, total int) (StallReport, bool) {
	if w.flagged || done >= total {
		return StallReport{}, false
	}
	var median time.Duration
	if len(w.walls) > 0 {
		sorted := append([]time.Duration(nil), w.walls...)
		sort.Slice(sorted, func(i, k int) bool { return sorted[i] < sorted[k] })
		median = sorted[len(sorted)/2]
	}
	threshold := time.Duration(w.factor * float64(median))
	if threshold < w.min {
		threshold = w.min
	}
	idle := time.Since(w.last)
	if idle <= threshold {
		return StallReport{}, false
	}
	w.flagged = true
	return StallReport{Idle: idle, Threshold: threshold, Median: median, Done: done, Total: total}, true
}

// watchStalls arms the stall watchdog when StallFactor is set. The
// returned stop function returns once the watchdog goroutine has
// exited.
func (s *Scheduler) watchStalls() (stop func()) {
	if s.StallFactor <= 0 {
		return func() {}
	}
	min := s.StallMin
	if min <= 0 {
		min = 5 * time.Second
	}
	w := &stallWatch{factor: s.StallFactor, min: min, last: time.Now()}
	s.mu.Lock()
	s.stall = w
	s.mu.Unlock()
	tick := min / 8
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			s.mu.Lock()
			rep, ok := w.check(s.stats.Completed, s.stats.Total)
			if ok {
				s.emitLocked(Event{Ev: EvStall, Stall: rep})
			}
			s.mu.Unlock()
			if ok && s.OnStall != nil {
				s.OnStall(rep)
			}
		}
	}()
	return func() {
		close(quit)
		<-exited
		s.mu.Lock()
		s.stall = nil
		s.mu.Unlock()
	}
}

// toCellResult projects a runner result onto the serializable cell
// form.
func toCellResult(cell Cell, full runner.Result, err error) CellResult {
	res := CellResult{
		Key:       cell.Key,
		Bench:     cell.Bench(),
		Mechanism: cell.Mech(),
		Seed:      cell.Seed(),
	}
	if err != nil {
		res.Err = err.Error()
		res.ErrKind = string(Classify(err))
		return res
	}
	res.IPC = full.IPC
	res.Cycles = full.CPU.Cycles
	res.Insts = full.CPU.Insts
	res.L1DMissRatio = full.L1D.MissRatio()
	res.L2MissRatio = full.L2.MissRatio()
	res.PrefetchIssued = full.L1D.PrefetchIssued + full.L2.PrefetchIssued
	res.PrefetchUseful = full.L1D.PrefetchUseful + full.L2.PrefetchUseful
	res.AvgReadLatency = full.Mem.AvgReadLatency()
	// Always non-nil, even when the mechanism adds no hardware: a
	// nil Hardware marks an entry cached before the cost fields
	// existed, so consumers can tell "cost-free" from "stale entry".
	res.Hardware = full.Hardware
	if res.Hardware == nil {
		res.Hardware = []core.HWTable{}
	}
	res.BaseCacheAccesses = full.BaseCacheAccesses
	res.Refusals = RefusalStats{
		RejectPort:  full.L1D.RejectPort + full.L1I.RejectPort + full.L2.RejectPort,
		RejectStall: full.L1D.RejectStall + full.L1I.RejectStall + full.L2.RejectStall,
		RejectMSHR:  full.L1D.RejectMSHR + full.L1I.RejectMSHR + full.L2.RejectMSHR,
		RetryPort:   full.CPU.RetryPort,
		RetryStall:  full.CPU.RetryStall,
		RetryMSHR:   full.CPU.RetryMSHR,
	}
	return res
}
