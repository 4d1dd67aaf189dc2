package campaign

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"microlib/internal/runner"
)

// arena is one worker's machine arena: the machine the worker built
// last, kept for three reasons. Every build takes the kept machine's
// cache line arrays instead of allocating them (runner.RunOn and its
// siblings), so a worker allocates its cache storage once, not once
// per cell. While the kept machine holds a warm-up prefix, a cell of
// that prefix group restores its checkpoint into it without any
// build: a restore fully overwrites the mutable state. And the kept
// machine holds the worker's rung buffer: the budget ladder's mid-run
// checkpoint of its group, captured in place cell after cell and
// handed to the next machine built, so the worker allocates one rung,
// not one per cell or group.
//
// Storage is owned per worker rather than pooled process-wide: a
// worker runs one cell at a time, so its previous machine is always
// idle when the next one is built, and nothing is shared between
// goroutines.
type arena struct {
	m *runner.Machine
	// prefix is the fingerprint of the warm-up prefix m holds and can
	// restore, or "" when m is only a spare: a cold run's machine, or
	// one a failed restore may have left half-written.
	prefix string
}

// spare hands the arena's machine over for recycling: closed, and no
// longer the arena's.
func (a *arena) spare() *runner.Machine {
	m := a.m
	if m != nil {
		m.Close()
	}
	a.m, a.prefix = nil, ""
	return m
}

// close releases the arena's machine at the end of the run.
func (a *arena) close() { a.spare() }

// cold runs a cell from scratch on a machine built from the arena's.
func (a *arena) cold(ctx context.Context, opts runner.Options) (runner.Result, error) {
	res, m, err := runner.RunOn(ctx, opts, a.spare())
	a.m = m
	return res, err
}

// capture simulates prefix group key's warm-up on a machine built from
// the arena's and keeps that machine, which then holds exactly the
// checkpoint's state: the group's next restore on this worker needs no
// build.
func (a *arena) capture(ctx context.Context, key string, opts runner.Options) (*runner.Checkpoint, error) {
	ck, m, err := runner.RunPrefixOn(ctx, opts, a.spare())
	if err != nil {
		return nil, err
	}
	a.m, a.prefix = m, key
	return ck, nil
}

// restore restores the checkpoint into the arena's machine — building
// one only when the arena does not hold the cell's prefix — and runs
// the cell's measurement phase. The machine keeps its rung between
// cells of the group, and rung reports that this cell started from
// it. Recover-protected: a panic on the warm path becomes an error,
// the caller demotes the machine to a spare and the cell falls back
// to the cold path, which reproduces and classifies any real fault.
func (a *arena) restore(ctx context.Context, c Cell, opts runner.Options, ck *runner.Checkpoint) (res runner.Result, rung bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, rung, err = runner.Result{}, false, &CellError{Kind: KindPanic, Msg: fmt.Sprint("warm restore panic: ", r)}
		}
	}()
	if a.m == nil || a.prefix != c.prefix.key {
		m, merr := runner.NewCheckpointMachineOn(ctx, opts, a.spare())
		if merr != nil {
			return runner.Result{}, false, merr
		}
		a.m, a.prefix = m, c.prefix.key
	}
	canon := c.prefix.canon
	if canon == "" {
		canon = opts.PrefixCanonical()
	}
	res, err = a.m.RunFromCheckpointPrefix(ctx, opts, canon, ck)
	return res, err == nil && a.m.FromRung(), err
}

// job is the scheduler's unit of dispatch: one cold cell, or a whole
// warm prefix group (key set to its prefix fingerprint) in ascending
// budget. A worker runs a job's cells back to back on its arena, so a
// group costs its warm-up plus its largest budget: each cell climbs
// from the rung its predecessor left, and the group's checkpoint (ck,
// or the deterministic err that prevented it) is built at most once.
type job struct {
	key string
	idx []int // the job's cells, as indices into the dispatched cells
	ck  *runner.Checkpoint
	err error
}

// dispatch splits the cells into the jobs the scheduler feeds its
// workers, in an order chosen so that consecutive cells on a worker
// share what its arena holds:
//
//   - cells that run cold and share a program (workload, seed and
//     skip) run back to back, one job each, programs in
//     first-appearance order, so a build finds the program image its
//     predecessor used still in the weakly held image table (GC runs
//     rarely) instead of rebuilding it;
//   - with Warm set, every warm prefix group is one job, in the
//     plan-order slot of its first cell.
//
// A prefix group is warm when it has two or more distinct cells, or
// any with a checkpoint store. The jobs index the returned cells: the
// given ones, or a copy in which cells built outside NewPlan have
// their prefix identity set. Cells of one fingerprint keep their
// relative order; duplicates stay in the jobs, for Run to feed once. A
// sampled run (interval telemetry on) runs every cell cold, in plan
// order: the warm-up portion of an interval series cannot be
// reproduced from a post-warm-up snapshot.
func (s *Scheduler) dispatch(cells []Cell) ([]Cell, []job) {
	jobs := make([]job, 0, len(cells))
	if s.Interval > 0 && s.IntervalSink != nil {
		idx := make([]int, len(cells))
		for i := range idx {
			idx[i] = i
			jobs = append(jobs, job{idx: idx[i : i+1]})
		}
		return cells, jobs
	}
	var size map[string]int // distinct cells per prefix group
	if s.Warm != nil {
		cells, size = prefixGroups(cells)
	}
	var slots []job // one program's cold cells, or one warm group
	programs, groups := map[string]int{}, map[string]int{}
	for i, c := range cells {
		at, id, key := programs, c.program, ""
		if s.Warm != nil && c.Opts.Warmup > 0 && (s.Warm.Store != nil || size[c.prefix.key] > 1) &&
			(c.Opts.Interval == 0 || c.Opts.IntervalSink == nil) {
			at, id, key = groups, c.prefix.key, c.prefix.key
		} else if id == "" {
			id = c.Opts.StreamCanonical() // a cell built outside NewPlan
		}
		j, ok := at[id]
		if !ok {
			j = len(slots)
			at[id] = j
			slots = append(slots, job{key: key})
		}
		slots[j].idx = append(slots[j].idx, i)
	}
	for _, sl := range slots {
		if sl.key != "" {
			slices.SortStableFunc(sl.idx, func(a, b int) int { return cmp.Compare(cells[a].Opts.Insts, cells[b].Opts.Insts) })
			jobs = append(jobs, sl)
			continue
		}
		for k := range sl.idx {
			jobs = append(jobs, job{idx: sl.idx[k : k+1]})
		}
	}
	return cells, jobs
}

// prefixGroups returns the cells with their prefix identity set and
// the number of distinct cells (by fingerprint) in each prefix group.
func prefixGroups(cells []Cell) ([]Cell, map[string]int) {
	size := map[string]int{}
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
			size[out[i].prefix.key]++
		}
	}
	return out, size
}
