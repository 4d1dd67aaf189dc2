package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"microlib/internal/campaign"
)

// runEnv is one benchmark run: the workload, its seeded spec, the
// references and a scratch directory removed at exit.
type runEnv struct {
	w    workloadDef
	spec campaign.Spec
	refs *refs
	work string
	n    int // scratch directories handed out
}

// scratch returns a fresh directory under the run's work dir.
func (e *runEnv) scratch() string {
	e.n++
	return filepath.Join(e.work, fmt.Sprint(e.n))
}

// cellTiming is one finished cell as the campaign callbacks saw it.
type cellTiming struct {
	cell       campaign.Cell
	start, end time.Time // OnStart and OnProgress, traced runs only
	wall       time.Duration
}

// rep is one execution of the workload's campaign.
type rep struct {
	start, firstStart, end time.Time
	cells                  []cellTiming
	delivered              uint64 // Σ warm-up + measured budget over cells
	allocBytes             uint64
	sched                  campaign.SchedulerStats
	digests                map[string]string
}

func (r *rep) setup() time.Duration { return r.firstStart.Sub(r.start) }
func (r *rep) sweep() time.Duration { return r.end.Sub(r.start) }

// execute runs the workload's campaign once with a fresh result cache
// and journal, timing it through the campaign callbacks. Traced, it
// also keeps every cell's start and end for spans; untraced, only its
// wall time. The plan is expanded beforehand only to label cells and
// count delivered instructions; Execute expands its own.
func (e *runEnv) execute(ctx context.Context, plan *campaign.Plan, traced bool) (*rep, error) {
	dir := e.scratch()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	journal, err := os.Create(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	defer journal.Close()

	r := &rep{}
	for _, c := range plan.Cells {
		r.delivered += c.Opts.Warmup + c.Opts.Insts
	}
	var mu sync.Mutex
	starts := make(map[string]time.Time, len(plan.Cells))
	cfg := campaign.RunConfig{
		Workers:  e.w.workers(),
		CacheDir: filepath.Join(dir, "cache"),
		Journal:  journal,
		OnStart: func(c campaign.Cell) {
			now := time.Now()
			mu.Lock()
			if r.firstStart.IsZero() {
				r.firstStart = now
			}
			if traced {
				starts[c.Key] = now
			}
			mu.Unlock()
		},
		OnProgress: func(p campaign.Progress) {
			ct := cellTiming{cell: p.Cell, wall: p.Wall}
			if traced {
				ct.end = time.Now()
				mu.Lock()
				ct.start = starts[p.Cell.Key]
				mu.Unlock()
			}
			r.cells = append(r.cells, ct)
		},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.start = time.Now()
	sum, err := campaign.Execute(ctx, e.spec, cfg)
	r.end = time.Now()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", e.w.Name, err)
	}
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.sched = sum.Sched
	if r.digests, err = readDigests(plan, cfg.CacheDir); err != nil {
		return nil, err
	}
	return r, nil
}

// setupOnly times one campaign set-up — plan expansion and opening
// the cache and journal — by canceling the campaign as soon as the
// first cell starts. The started cells observe the cancellation before
// simulating anything.
func (e *runEnv) setupOnly(ctx context.Context) (time.Duration, error) {
	dir := e.scratch()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	journal, err := os.Create(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return 0, err
	}
	defer journal.Close()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var once sync.Once
	var first time.Time
	start := time.Now()
	_, err = campaign.Execute(cctx, e.spec, campaign.RunConfig{
		Workers:  e.w.workers(),
		CacheDir: filepath.Join(dir, "cache"),
		Journal:  journal,
		OnStart: func(campaign.Cell) {
			once.Do(func() {
				first = time.Now()
				cancel()
			})
		},
	})
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if first.IsZero() {
		return 0, fmt.Errorf("set-up probe: no cell started")
	}
	return first.Sub(start), nil
}

// checkRep checks every cell of a rep against the references.
func (e *runEnv) checkRep(plan *campaign.Plan, r *rep, t *tally) {
	for _, c := range plan.Cells {
		key := cellKey(plan, c)
		v, why := e.refs.check(c.Seed(), cellLabel(plan, c), c.Mech(), r.digests[key])
		t.add(v, key, why)
	}
}

// setupProbes is how many set-up-only campaigns a run times in
// addition to the set-up of each measured campaign.
const setupProbes = 30

// measure is the untraced run: repeat the campaign while another
// repetition is expected to finish within the time budget (at least
// twice), and report medians of host-speed-adjusted times (calib.go).
func (e *runEnv) measure(ctx context.Context, budget time.Duration) (result, map[string]any, error) {
	begin := time.Now()
	plan, err := campaign.NewPlan(e.spec)
	if err != nil {
		return result{}, nil, err
	}
	speed := newHostSpeed()
	var probes []float64
	for i := 0; i < setupProbes; i++ {
		d, err := e.setupOnly(ctx)
		if err != nil {
			return result{}, nil, err
		}
		probes = append(probes, d.Seconds())
	}
	f := speed.next()
	var (
		t                     tally
		setups                []float64
		sweeps, rates, allocs []float64
		rawSweeps, factors    []float64
		walls                 []float64
		costs                 []float64 // one repetition with its calibration
	)
	for _, d := range probes {
		setups = append(setups, d*f)
	}
	for len(sweeps) < 2 || time.Since(begin)+time.Duration(median(costs)*float64(time.Second)) <= budget {
		start := time.Now()
		r, err := e.execute(ctx, plan, false)
		if err != nil {
			return result{}, nil, err
		}
		f := speed.next()
		costs = append(costs, time.Since(start).Seconds())
		e.checkRep(plan, r, &t)
		sweep := r.sweep().Seconds() * f
		setups = append(setups, r.setup().Seconds()*f)
		sweeps = append(sweeps, sweep)
		rawSweeps = append(rawSweeps, r.sweep().Seconds())
		factors = append(factors, f)
		rates = append(rates, float64(r.delivered)/1e6/sweep)
		allocs = append(allocs, float64(r.allocBytes)/(1<<20))
		for _, c := range r.cells {
			if c.wall > 0 {
				walls = append(walls, float64(c.wall)/1e6*f)
			}
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, nil, err
	}
	m := map[string]metric{
		"setup_s":             {median(setups), "s"},
		"sweep_s":             {median(sweeps), "s"},
		"minsts_per_s":        {median(rates), "Minst/s"},
		"cell_ms_p50":         {percentile(walls, 50), "ms"},
		"cell_ms_p90":         {percentile(walls, 90), "ms"},
		"peak_rss_mb":         {rss, "MB"},
		"alloc_mb":            {median(allocs), "MB"},
		"cells_verified_frac": {float64(t.verified) / float64(t.attempted), "frac"},
	}
	report := map[string]any{
		"samples": map[string]int{
			"setup": len(setups), "campaigns": len(sweeps), "cells": len(walls),
		},
		"setup_s": setups, "sweep_s": sweeps, "minsts_per_s": rates, "alloc_mb": allocs,
		"raw_sweep_s": rawSweeps, "adjust_factor": factors, "calib_ms": speed.samples,
		"check": t.report(),
	}
	logCheck(&t)
	fmt.Printf("samples: %d set-ups, %d campaigns, %d cell latencies\n", len(setups), len(sweeps), len(walls))
	fmt.Printf("host speed: calibration median %.1f ms (nominal %.1f ms); raw sweep_s median %.4g s\n",
		median(speed.samples), float64(calibNominal)/1e6, median(rawSweeps))
	return result{Correct: t.failed == 0 && t.verified > 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, report, nil
}

// logCheck names unverified and failed cells on stderr.
func logCheck(t *tally) {
	if t.unverified > 0 {
		names := t.report()["unverified_cells"].([]string)
		fmt.Fprintf(os.Stderr, "perfbench: %d cell runs unverified (nondeterministic mechanism, no reference), %d distinct cells: %s\n",
			t.unverified, len(names), strings.Join(names, "; "))
	}
	for _, f := range t.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
	}
}

// peakRSSMB is the process's peak resident set size. One process runs
// one workload, so this is that workload's peak.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
