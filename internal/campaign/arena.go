package campaign

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"microlib/internal/runner"
)

// arena is one worker's machine arena: everything the worker's cells
// allocate once and pass on, not once per cell.
//
//   - The machine the worker built last. Every build takes its storage
//     instead of allocating it (runner.RunOn and its siblings): the
//     cache line arrays, the event calendar and the out-of-order
//     window.
//   - The run's mechanism tables (runner.MechTables), shared with the
//     run's other workers: the DBCP and Markov tables the last
//     retired instance of each gave up, taken by the next build of
//     that name on any worker.
//   - While that machine holds a warm-up prefix (runner.Machine.Prefix),
//     a cell of that prefix group restores its checkpoint into it
//     without any build: a restore fully overwrites the mutable state.
//   - The machine's rung buffer: the budget ladder's mid-run
//     checkpoint of its group, captured in place cell after cell and
//     handed to the next machine built.
//   - The machine's kept mechanism snapshots, one per mechanism name,
//     so alternating mechanisms grow each one's snapshot once.
//   - The checkpoint of the worker's previous prefix group, once that
//     group's job has finished: the next group's capture overwrites it
//     in place, so the worker allocates the cache-state tables of one
//     warm-up checkpoint, not one per group.
//
// Storage is owned per worker rather than pooled process-wide: a
// worker runs one cell at a time, so its previous machine is always
// idle when the next one is built. The mechanism tables are the one
// exception, shared per run: a worker runs other mechanisms between
// two cells of one, so kept per worker they would cost ~2.2 MB
// resident per worker, which raised the 2-worker rank-grid's peak RSS
// by about a quarter.
type arena struct {
	m      *runner.Machine
	tables *runner.MechTables
	// ck is a finished group's checkpoint, free to capture into.
	ck *runner.Checkpoint
}

// spare hands the arena's machine over for recycling: closed, and no
// longer the arena's.
func (a *arena) spare() *runner.Machine {
	m := a.m
	if m != nil {
		m.Close()
	}
	a.m = nil
	return m
}

// close releases the arena's machine at the end of the run.
func (a *arena) close() { a.spare() }

// cold runs a cell from scratch on a machine built from the arena's.
func (a *arena) cold(ctx context.Context, opts runner.Options) (runner.Result, error) {
	res, m, err := runner.RunOn(ctx, opts, a.spare(), a.tables)
	a.m = m
	return res, err
}

// capture simulates the cell's warm-up on a machine built from the
// arena's, into the arena's free checkpoint, and keeps that machine,
// which then holds exactly the checkpoint's state: the group's next
// restore on this worker needs no build.
func (a *arena) capture(ctx context.Context, opts runner.Options) (*runner.Checkpoint, error) {
	into := a.ck
	a.ck = nil
	ck, m, err := runner.RunPrefixOn(ctx, opts, a.spare(), into, a.tables)
	if err != nil {
		a.ck = into // half-written, but still a buffer to capture into
		return nil, err
	}
	a.m = m
	return ck, nil
}

// release takes back a finished job's checkpoint, for the worker's
// next capture to overwrite. Nothing else holds it: the job was its
// only reader, and a stored copy is serialized.
func (a *arena) release(j *job) {
	if j.ck != nil {
		a.ck = j.ck
	}
}

// restore restores the checkpoint into the arena's machine — building
// one only when the arena does not hold the cell's prefix — and runs
// the cell's measurement phase. The machine keeps its rung between
// cells of the group, and rung reports that this cell started from
// it. Recover-protected: a panic on the warm path becomes an error and
// the cell falls back to the cold path, which reproduces and
// classifies any real fault. A restore that failed or panicked part-way
// leaves the machine holding no prefix, so only a build restores into
// it again.
func (a *arena) restore(ctx context.Context, c Cell, opts runner.Options, ck *runner.Checkpoint) (res runner.Result, rung bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, rung, err = runner.Result{}, false, &CellError{Kind: KindPanic, Msg: fmt.Sprint("warm restore panic: ", r)}
		}
	}()
	canon := c.prefix.canon
	if canon == "" {
		canon = opts.PrefixCanonical()
	}
	if a.m == nil || a.m.Prefix() != canon {
		m, merr := runner.NewCheckpointMachineOn(ctx, opts, a.spare(), a.tables)
		if merr != nil {
			return runner.Result{}, false, merr
		}
		a.m = m
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
// capture is the wall time of that build not yet charged to the cell
// whose attempt made it.
type job struct {
	key     string
	idx     []int // the job's cells, as indices into the dispatched cells
	ck      *runner.Checkpoint
	err     error
	capture time.Duration
}

// dispatch splits the cells into the jobs the scheduler feeds its
// workers, in an order chosen so that consecutive jobs on a worker
// share what its arena and the program image table hold. The jobs of
// one program (workload, seed and skip) run back to back, programs in
// first-appearance order:
//
//   - each cell that runs cold is a job of its own;
//   - with Warm set, every warm prefix group is one job, its cells in
//     ascending budget.
//
// Within a program, jobs keep the order of their first cells. A job
// thus finds the program image its predecessor used still live in the
// weakly held image table — the arena's machine holds it until the
// next build detaches that machine's storage and opens its own
// workload — instead of rebuilding it. An image is built again only
// when a collection lands in that short window; workers that open one
// program at once share one build (see workload.lookupProgram).
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
	one := make([]int, len(cells)) // one[i:i+1] is a cold job's idx
	for i := range one {
		one[i] = i
	}
	if s.Interval > 0 && s.IntervalSink != nil {
		for i := range one {
			jobs = append(jobs, job{idx: one[i : i+1]})
		}
		return cells, jobs
	}
	var size map[string]int // distinct cells per prefix group
	if s.Warm != nil {
		cells, size = prefixGroups(cells)
	}
	var programs [][]job // each program's jobs
	at := map[string]int{}
	group := map[string]int{} // prefix key -> its job in its program
	for i, c := range cells {
		id := c.program
		if id == "" {
			id = c.Opts.StreamCanonical() // a cell built outside NewPlan
		}
		p, ok := at[id]
		if !ok {
			p = len(programs)
			at[id] = p
			programs = append(programs, nil)
		}
		if key := c.prefix.key; s.Warm != nil && c.Opts.Warmup > 0 && (s.Warm.Store != nil || size[key] > 1) &&
			(c.Opts.Interval == 0 || c.Opts.IntervalSink == nil) {
			g, ok := group[key]
			if !ok {
				g = len(programs[p])
				group[key] = g
				programs[p] = append(programs[p], job{key: key})
			}
			programs[p][g].idx = append(programs[p][g].idx, i)
			continue
		}
		programs[p] = append(programs[p], job{idx: one[i : i+1]})
	}
	for _, pj := range programs {
		for _, j := range pj {
			if j.key != "" {
				slices.SortStableFunc(j.idx, func(a, b int) int { return cmp.Compare(cells[a].Opts.Insts, cells[b].Opts.Insts) })
			}
			jobs = append(jobs, j)
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
