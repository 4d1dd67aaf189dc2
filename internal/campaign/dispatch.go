package campaign

import (
	"cmp"
	"slices"
	"time"

	"microlib/internal/runner"
)

// job is the scheduler's unit of dispatch: one cold cell, or a whole
// warm prefix group (key set to its prefix fingerprint) in ascending
// budget. A worker runs a job's cells back to back on its
// runner.Arena, so a group costs its warm-up plus its largest budget:
// each cell climbs from the rung its predecessor left, and the group's
// checkpoint (ck, or the deterministic err that prevented it) is built
// at most once; a captured one is the arena's buffer, which no other
// job overwrites before this one ends.
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
