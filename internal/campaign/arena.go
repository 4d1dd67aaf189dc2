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
	// builds counts machine builds per prefix fingerprint, prefix
	// captures included. dispatchOrder keeps it at two or fewer per
	// group on one worker.
	builds map[string]int
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

// built records a build of a machine for prefix group key.
func (a *arena) built(key string) {
	if a.builds == nil {
		a.builds = make(map[string]int)
	}
	a.builds[key]++
}

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
	a.built(key)
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
		a.built(c.prefix.key)
	}
	canon := c.prefix.canon
	if canon == "" {
		canon = opts.PrefixCanonical()
	}
	res, err = a.m.RunFromCheckpointPrefix(ctx, opts, canon, ck)
	return res, err == nil && a.m.FromRung(), err
}

// dispatchOrder returns the order the scheduler feeds cells to its
// workers, as indices into the returned cells (which are the given
// cells, with their prefix identity set by the Warm policy): a
// permutation chosen so that consecutive cells on a worker can share
// what its arena holds:
//
//   - cells that run cold and share a program (workload, seed and
//     skip) run back to back, programs in first-appearance order, so
//     a build finds the program image its predecessor used still in
//     the weakly held image table (GC runs rarely) instead of
//     rebuilding it;
//   - with Warm set, every warm prefix group takes the plan-order slot
//     of its first cell, so prefixes still build in parallel across
//     workers; the group's remaining cells follow at the end, back to
//     back, groups in first-appearance order, so an arena serves a
//     whole run of cells sharing its machine. A group's cells run in
//     ascending budget, its smallest in the first slot, so each cell
//     climbs from the rung its predecessor left on the worker.
//
// Cells of one fingerprint keep their relative order. A sampled run
// (interval telemetry on) keeps plan order. dispatchOrder also prepares
// the Warm policy's index for the run.
func (s *Scheduler) dispatchOrder(cells []Cell) ([]Cell, []int) {
	sampled := s.Interval > 0 && s.IntervalSink != nil
	w := s.Warm
	if w != nil {
		cells = w.prepare(cells, sampled)
	}
	if sampled {
		order := make([]int, len(cells))
		for i := range order {
			order[i] = i
		}
		return cells, order
	}
	var slots [][]int // first pass: a warm group's first cell, or one program's cold cells
	programs := map[string]int{}
	rest := map[string][]int{}
	var groups []string
	first := map[string]int{} // a warm group's slot
	for i, c := range cells {
		k := ""
		if w != nil {
			k = w.key(c, false)
		}
		if k == "" {
			p := c.program
			if p == "" {
				p = c.Opts.StreamCanonical() // a cell built outside NewPlan
			}
			if j, ok := programs[p]; ok {
				slots[j] = append(slots[j], i)
				continue
			}
			programs[p] = len(slots)
			slots = append(slots, []int{i})
			continue
		}
		if _, started := first[k]; started {
			rest[k] = append(rest[k], i)
			continue
		}
		first[k] = len(slots)
		groups = append(groups, k)
		slots = append(slots, []int{i})
	}
	for _, k := range groups {
		g := append(slots[first[k]], rest[k]...)
		slices.SortStableFunc(g, func(a, b int) int { return cmp.Compare(cells[a].Opts.Insts, cells[b].Opts.Insts) })
		slots[first[k]], rest[k] = g[:1], g[1:]
	}
	order := make([]int, 0, len(cells))
	for _, sl := range slots {
		order = append(order, sl...)
	}
	for _, k := range groups {
		order = append(order, rest[k]...)
	}
	return cells, order
}
