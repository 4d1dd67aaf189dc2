package main

import (
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"microlib/internal/campaign"
	"microlib/internal/core"
	"microlib/internal/runner"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code. Parent 0 marks a root.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run
// ends. Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Attrs: attrs})
	return id
}

// open starts a span whose end is set by close; children may be added
// in between.
func (t *tracer) open(parent int, name string) int {
	now := time.Now()
	return t.add(parent, name, now, now, nil)
}

func (t *tracer) close(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// timed runs f inside a span.
func (t *tracer) timed(parent int, name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.add(parent, name, start, end, nil)
	return end.Sub(start), err
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// reconcile checks every span named parentName against its children:
// a child outside its parent's interval is an error, and the parents'
// self time (duration not covered by children) over their total
// duration is the unattributed share.
func reconcile(spans []span, parentName string) (unattributed float64, err error) {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var total, covered time.Duration
	for _, p := range spans {
		if p.Name != parentName {
			continue
		}
		total += p.dur()
		for _, c := range children[p.ID] {
			if c.Start < p.Start || c.End > p.End {
				return 0, fmt.Errorf("span %s#%d lies outside its parent %s#%d", c.Name, c.ID, p.Name, p.ID)
			}
			covered += c.dur()
		}
	}
	if total == 0 {
		return 0, nil
	}
	if covered > total {
		return 0, fmt.Errorf("children of %s spans overlap: %v covered of %v", parentName, covered, total)
	}
	return float64(total-covered) / float64(total), nil
}

// counts are the deterministic work counts of one traced pass. Two
// passes must produce identical counts.
type counts map[string]uint64

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// diffCounts names every count that differs between two passes.
func diffCounts(a, b counts) []string {
	var bad []string
	for k, v := range a {
		if b[k] != v {
			bad = append(bad, fmt.Sprintf("%s: %d vs %d", k, v, b[k]))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			bad = append(bad, fmt.Sprintf("%s: missing in first pass", k))
		}
	}
	sort.Strings(bad)
	return bad
}

// traceCampaign turns a traced campaign execution into spans and the
// campaign-layer metrics.
func traceCampaign(tr *tracer, r *rep, workers int) (busy, drain, overheadMS float64) {
	root := tr.add(0, "campaign", r.start, r.end, map[string]float64{"cells": float64(len(r.cells))})
	tr.add(root, "setup", r.start, r.firstStart, nil)
	var wallSum, over time.Duration
	var lastStart time.Time
	for _, c := range r.cells {
		tr.add(root, "campaign.cell", c.start, c.end, map[string]float64{"wall_ms": float64(c.wall) / 1e6, "index": float64(c.cell.Index)})
		wallSum += c.wall
		over += c.end.Sub(c.start) - c.wall
		if c.start.After(lastStart) {
			lastStart = c.start
		}
	}
	// The first worker to go idle is the first to finish a cell after
	// the last cell was handed out; from then to the campaign's return
	// the pool drains.
	firstIdle := r.end
	for _, c := range r.cells {
		if c.end.After(lastStart) && c.end.Before(firstIdle) {
			firstIdle = c.end
		}
	}
	busy = wallSum.Seconds() / (float64(workers) * r.sweep().Seconds())
	drain = r.end.Sub(firstIdle).Seconds()
	overheadMS = float64(over) / 1e6 / float64(len(r.cells))
	return busy, drain, overheadMS
}

// replayCell is one cell the benchmark simulates itself through the
// runner's checkpoint API.
type replayCell struct {
	cell  campaign.Cell
	label string
}

// replayStats are the runner-layer timings and model counters of one
// replay pass.
type replayStats struct {
	prefixMS, forkMS []float64
	forkNS           time.Duration
	measuredInsts    uint64
	checkpointKB     []float64
	counts           counts
}

// replay runs the sampled cells through runner.NewCheckpointMachine,
// runner.RunPrefixContext and Machine.RunFromCheckpoint — the calls a
// warm campaign worker makes — with a span around each, and checks
// every result against the references.
func (e *runEnv) replay(ctx context.Context, tr *tracer, plan *campaign.Plan, sample []replayCell, t *tally) (replayStats, error) {
	st := replayStats{counts: counts{}}
	root := tr.open(0, "replay")
	var (
		m      *runner.Machine
		prefix string
		ck     *runner.Checkpoint
	)
	defer func() {
		if m != nil {
			m.Close()
		}
	}()
	for _, rc := range sample {
		opts := rc.cell.Opts
		cell := tr.open(root, "replay.cell")
		if p := opts.PrefixFingerprint(); p != prefix {
			if m != nil {
				m.Close()
				m = nil
			}
			d, err := tr.timed(cell, "prefix", func() (err error) {
				ck, err = runner.RunPrefixContext(ctx, opts)
				return err
			})
			if err != nil {
				return st, fmt.Errorf("replay %s: prefix: %w", rc.label, err)
			}
			st.prefixMS = append(st.prefixMS, float64(d)/1e6)
			if _, err := tr.timed(cell, "build", func() (err error) {
				m, err = runner.NewCheckpointMachine(ctx, opts)
				return err
			}); err != nil {
				return st, fmt.Errorf("replay %s: build: %w", rc.label, err)
			}
			prefix = p
			var n byteCounter
			if _, err := tr.timed(cell, "checkpoint.encode", func() error {
				return gob.NewEncoder(&n).Encode(ck)
			}); err != nil {
				return st, fmt.Errorf("replay %s: encode checkpoint: %w", rc.label, err)
			}
			st.checkpointKB = append(st.checkpointKB, float64(n)/1024)
		}
		var full runner.Result
		d, err := tr.timed(cell, "fork", func() (err error) {
			full, err = m.RunFromCheckpoint(ctx, opts, ck)
			return err
		})
		name := "replay " + cellKey(plan, rc.cell)
		switch {
		case ctx.Err() != nil:
			return st, ctx.Err()
		case err != nil:
			t.add(failed, name, err.Error())
		default:
			measured := full.CPU.Insts - opts.Warmup
			st.forkMS = append(st.forkMS, float64(d)/1e6)
			st.forkNS += d
			st.measuredInsts += measured
			st.counts.add(resultCounts(full, measured))
			tr.timed(cell, "check", func() error {
				v, why := e.refs.check(rc.cell.Seed(), rc.label, rc.cell.Mech(), runnerRecord(full).digest())
				t.add(v, name, why)
				return nil
			})
		}
		tr.close(cell)
	}
	tr.close(root)
	return st, nil
}

// resultCounts extracts the measured-phase model counters of a runner
// result.
func resultCounts(full runner.Result, measured uint64) counts {
	l1, l2, mm := full.L1D, full.L2, full.Mem
	return counts{
		"insts.measured":   measured,
		"insts.total":      full.CPU.Insts,
		"cpu.retries":      full.CPU.RetryPort + full.CPU.RetryStall + full.CPU.RetryMSHR,
		"l1d.accesses":     l1.Accesses,
		"l1d.misses":       l1.Misses,
		"l1d.rejects":      l1.RejectPort + l1.RejectStall + l1.RejectMSHR,
		"l2.accesses":      l2.Accesses,
		"l2.misses":        l2.Misses,
		"prefetch.issued":  l1.PrefetchIssued + l2.PrefetchIssued,
		"prefetch.useful":  l1.PrefetchUseful + l2.PrefetchUseful,
		"mem.reads":        mm.Reads,
		"mem.writes":       mm.Writes,
		"mem.read_latency": mm.TotalReadLatency,
		"mem.row_hits":     mm.RowHits,
		"mem.row_misses":   mm.RowMisses + mm.RowConflicts,
		"mem.queue_full":   mm.QueueFullStalls,
	}
}

type byteCounter int

func (b *byteCounter) Write(p []byte) (int, error) {
	*b += byteCounter(len(p))
	return len(p), nil
}

// maxSample bounds the cells one replay pass simulates.
const maxSample = 48

// replaySample picks the replay cells: the first seed's cells, every
// k-th so at most maxSample remain, leaving out mechanisms the
// references mark nondeterministic (their counts would not repeat).
// Cells stay in plan order, so cells sharing a warm-up prefix are
// adjacent and fork from one checkpoint.
func (e *runEnv) replaySample(plan *campaign.Plan) []replayCell {
	var first []campaign.Cell
	for _, c := range plan.Cells {
		if c.Seed() == e.spec.Seeds[0] && !e.refs.nondeterministic(c.Mech()) {
			first = append(first, c)
		}
	}
	stride := (len(first) + maxSample - 1) / maxSample
	var out []replayCell
	for i := 0; i < len(first); i += stride {
		out = append(out, replayCell{cell: first[i], label: cellLabel(plan, first[i])})
	}
	return out
}

// ratio divides, mapping an empty denominator to 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traced is the per-layer run. It executes the campaign once untraced
// and twice traced (the traced-minus-untraced wall time is the tracing
// overhead), replays a sample of cells through the runner layer twice,
// hand-assembles the sampled machines twice, times the standalone
// layer probes, and derives every per-layer metric. Each count-type
// metric must repeat exactly between the two passes.
func (e *runEnv) traced(ctx context.Context) (result, map[string]any, error) {
	plan, err := campaign.NewPlan(e.spec)
	if err != nil {
		return result{}, nil, err
	}
	var t tally
	plain, err := e.execute(ctx, plan, false)
	if err != nil {
		return result{}, nil, err
	}
	e.checkRep(plan, plain, &t)

	tr := newTracer()
	workers := e.w.workers()
	var (
		reps                  []*rep
		passCounts            [2]counts
		busy, drain, overhead []float64
		sweeps                []float64
		replays               [2]replayStats
		hands                 [2]handStats
	)
	sample := e.replaySample(plan)
	for pass := 0; pass < 2; pass++ {
		r, err := e.execute(ctx, plan, true)
		if err != nil {
			return result{}, nil, err
		}
		e.checkRep(plan, r, &t)
		reps = append(reps, r)
		b, d, o := traceCampaign(tr, r, workers)
		busy, drain, overhead = append(busy, b), append(drain, d), append(overhead, o)
		sweeps = append(sweeps, r.sweep().Seconds())

		if replays[pass], err = e.replay(ctx, tr, plan, sample, &t); err != nil {
			return result{}, nil, err
		}
		if hands[pass], err = handProbe(tr, sample); err != nil {
			return result{}, nil, err
		}
		c := counts{
			"campaign.prefix_runs":     uint64(r.sched.PrefixRuns),
			"campaign.checkpoint_hits": uint64(r.sched.CheckpointHits),
			"campaign.checkpoint_miss": uint64(r.sched.CheckpointMisses),
			"campaign.errors":          uint64(r.sched.Errors),
		}
		c.add(replays[pass].counts)
		c.add(hands[pass].counts)
		passCounts[pass] = c
	}
	layer := standalone(tr)
	ratios, err := mechRatios(ctx, tr, reps, sample)
	if err != nil {
		return result{}, nil, err
	}

	spans := tr.snapshot()
	unattributed, err := reconcile(spans, "replay.cell")
	if err != nil {
		return result{}, nil, err
	}
	mismatches := diffCounts(passCounts[0], passCounts[1])
	for _, m := range mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: count differs between traced passes:", m)
	}

	// Counts come from one pass (they repeat); timings pool both.
	c := passCounts[0]
	rp := replays[0]
	rp.prefixMS = append(rp.prefixMS, replays[1].prefixMS...)
	rp.forkMS = append(rp.forkMS, replays[1].forkMS...)
	rp.checkpointKB = append(rp.checkpointKB, replays[1].checkpointKB...)
	forkNSPerInst := ratio(float64(rp.forkNS+replays[1].forkNS), 2*float64(rp.measuredInsts))
	run, gen := hands[0].run+hands[1].run, hands[0].gen+hands[1].gen
	f := func(k string) float64 { return float64(c[k]) }
	kinst := f("insts.measured") / 1000
	m := map[string]metric{
		"campaign.busy_frac":              {median(busy), "frac"},
		"campaign.drain_s":                {median(drain), "s"},
		"campaign.overhead_ms_per_cell":   {median(overhead), "ms"},
		"campaign.prefix_runs":            {f("campaign.prefix_runs"), "count"},
		"campaign.checkpoint_hits":        {f("campaign.checkpoint_hits"), "count"},
		"runner.prefix_ms":                {median(rp.prefixMS), "ms"},
		"runner.fork_ms":                  {median(rp.forkMS), "ms"},
		"runner.fork_ns_per_inst":         {forkNSPerInst, "ns"},
		"runner.checkpoint_kb":            {median(rp.checkpointKB), "KiB"},
		"cpu.ns_per_inst":                 {ratio(float64(run-gen), 2*f("hand.insts")), "ns"},
		"workload.ns_per_inst":            {ratio(float64(gen), 2*f("hand.generated")), "ns"},
		"sim.ns_per_event":                {layer["sim.ns_per_event"], "ns"},
		"sim.events_per_inst":             {ratio(f("sim.events"), f("hand.insts")), "events/inst"},
		"cpu.retries_per_kinst":           {ratio(f("cpu.retries"), f("insts.total")/1000), "1/kinst"},
		"l1d.refused_frac":                {ratio(f("l1d.rejects"), f("l1d.rejects")+f("l1d.accesses")), "frac"},
		"l1d.accesses_per_inst":           {ratio(f("l1d.accesses"), f("insts.measured")), "1/inst"},
		"l1d.miss_ratio":                  {ratio(f("l1d.misses"), f("l1d.accesses")), "frac"},
		"l2.miss_ratio":                   {ratio(f("l2.misses"), f("l2.accesses")), "frac"},
		"l1d.prefetch_useful_frac":        {ratio(f("prefetch.useful"), f("prefetch.issued")), "frac"},
		"cache.access_ns_hit":             {layer["cache.access_ns_hit"], "ns"},
		"cache.access_ns_miss":            {layer["cache.access_ns_miss"], "ns"},
		"bus.fsb_busy_frac":               {ratio(f("fsb.busy_cycles"), f("hand.cycles")), "frac"},
		"bus.fsb_wait_per_transfer":       {ratio(f("fsb.wait_cycles"), f("fsb.transfers")), "cycles"},
		"bus.reserve_ns":                  {layer["bus.reserve_ns"], "ns"},
		"mem.accesses_per_kinst":          {ratio(f("mem.reads")+f("mem.writes"), kinst), "1/kinst"},
		"mem.write_frac":                  {ratio(f("mem.writes"), f("mem.reads")+f("mem.writes")), "frac"},
		"mem.row_hit_ratio":               {ratio(f("mem.row_hits"), f("mem.row_hits")+f("mem.row_misses")), "frac"},
		"mem.avg_read_latency_cycles":     {ratio(f("mem.read_latency"), f("mem.reads")), "cycles"},
		"mem.queue_full_stalls_per_kinst": {ratio(f("mem.queue_full"), kinst), "1/kinst"},
		"mem.enqueue_ns":                  {layer["mem.enqueue_ns"], "ns"},
		"trace.unattributed_frac":         {unattributed, "frac"},
		"trace.overhead_s":                {median(sweeps) - plain.sweep().Seconds(), "s"},
		"check.unverified_cells":          {float64(len(t.unchecked)), "count"},
		"check.count_mismatches":          {float64(len(mismatches)), "count"},
	}
	for _, name := range core.Names() {
		m["mech."+name+".cell_ms_ratio"] = metric{ratios[name], "ratio"}
	}
	logCheck(&t)
	fmt.Printf("reconciliation: %.2f%% of replayed cell time is outside the build, prefix, fork and check spans\n", 100*unattributed)
	fmt.Printf("tracing overhead: %.4f s (traced sweep %.4f s, untraced %.4f s)\n", m["trace.overhead_s"].Value, median(sweeps), plain.sweep().Seconds())
	if err := writeOut(fmt.Sprintf("spans-%s-seed%d.json", e.w.Name, e.spec.Seeds[0]), spans); err != nil {
		return result{}, nil, err
	}
	report := map[string]any{
		"counts": passCounts, "count_mismatches": mismatches,
		"replay_cells": len(sample), "check": t.report(),
	}
	return result{Correct: t.failed == 0 && t.verified > 0 && len(mismatches) == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, report, nil
}
