// Command mlbench runs the kernel microbenchmarks and one end-to-end
// artifact benchmark, writes the results as JSON (BENCH_10.json in CI)
// and enforces five contracts: steady-state Engine.AfterFunc + Drain
// scheduling must perform zero allocations per event, the stall-heavy
// core rows must perform zero steady-state allocations, so must the
// eager-writeback drain (cache.DrainDirtyLRU) rows, a generator of a
// live (profile, seed) must share its program image (a small constant
// allocation count), a shared-prefix campaign sweep must run at least
// 5x faster warm (prefix checkpointing and the budget ladder on) than
// cold, and the worker-arena rows, ladder steps and a warm prefix group
// included, must stay under fixed byte bounds — or the command exits
// nonzero.
//
// Every row records wall-clock time and iteration count alongside the
// allocation counters, and the simulator-throughput rows carry
// insts_per_sec — including a sampled variant that prices the
// telemetry interval sampler against the unsampled run. The
// campaign/shared-prefix pair prices warm-state checkpointing against
// cold execution of the same plan.
//
// Usage:
//
//	mlbench [-out BENCH_10.json] [-scale 4] [-artifact fig8] [-skip-artifact]
//
// The JSON also carries the recorded seed-kernel baseline (the
// container/heap engine with per-cycle stepping, measured on the
// reference machine before the calendar-queue rewrite) so the
// end-to-end speedup of the rewrite stays visible in the artifact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"microlib/internal/cache"
	"microlib/internal/campaign"
	"microlib/internal/cpu"
	"microlib/internal/experiments"
	"microlib/internal/hier"
	"microlib/internal/runner"
	"microlib/internal/sim"
	"microlib/internal/telemetry"
	"microlib/internal/workload"
)

// seedBaseline records the pre-rewrite kernel on the reference
// machine (Intel Xeon @ 2.10GHz, linux/amd64, MICROLIB_SCALE=4).
// Speedup ratios in the report are only meaningful on comparable
// hardware; the allocation gate is machine-independent.
var seedBaseline = map[string]Result{
	"kernel/afterfunc-drain": {Name: "kernel/afterfunc-drain", NsPerOp: 142.1, AllocsPerOp: 3, BytesPerOp: 64},
	"sim-throughput":         {Name: "sim-throughput", NsPerOp: 58764333, AllocsPerOp: 665500, BytesPerOp: 21000736, Extra: map[string]float64{"insts_per_sec": 1021029}},
	"artifact/fig8/scale4":   {Name: "artifact/fig8/scale4", NsPerOp: 48488197464},
}

// Result is one benchmark row.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// N and WallS record how much work the row actually measured:
	// iterations chosen by the harness and total wall-clock seconds.
	N     int                `json:"n,omitempty"`
	WallS float64            `json:"wall_s,omitempty"`
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the BENCH_10.json document.
type Report struct {
	GoVersion    string             `json:"go_version"`
	GOOS         string             `json:"goos"`
	GOARCH       string             `json:"goarch"`
	Scale        uint64             `json:"scale"`
	Results      []Result           `json:"results"`
	SeedBaseline map[string]Result  `json:"seed_baseline"`
	Speedup      map[string]float64 `json:"speedup_vs_seed,omitempty"`
	AllocGate    string             `json:"alloc_gate"`
	WarmGate     string             `json:"warm_gate"`
	RetryGate    string             `json:"retry_gate"`
	DrainGate    string             `json:"drain_gate"`
	ImageGate    string             `json:"image_gate"`
	ArenaGate    string             `json:"arena_gate"`
}

// maxSharedGenAllocs bounds the allocations of a NewGenerator that
// hits a live program image: the cursor (generator, pattern cursors,
// chain tables) and nothing for the lookup.
const maxSharedGenAllocs = 4

// minWarmSpeedup is the warm gate's floor: repeated runs on a 2-vCPU
// Xeon VM (linux/amd64, go1.24) measured 5.8x-6.6x, against 4.0x-4.6x
// before the budget ladder, which replays every budget from the
// warm-up boundary.
const minWarmSpeedup = 5.0

// maxArenaCellBytes bounds the bytes one steady-state store-stall cell
// allocates on a warmed worker arena (runner/cold-cell/arena and
// runner/cold-cell/vc): the Base cell's measured 6,872 B/op
// (linux/amd64, go1.24) plus 30% headroom. A cell that rebuilt its
// cache arrays (~440 KB), its program image, its event calendar
// (~18 KB) or its out-of-order window would fail it, and so would a
// ladder step (runner/rung-capture) whose capture rebuilt its rung.
const maxArenaCellBytes = 6872 * 13 / 10

// maxArenaDBCPBytes and maxArenaMarkovBytes bound the same store-stall
// cell with DBCP or Markov, run right after a Base cell on the warmed
// arena (runner/cold-cell/dbcp and runner/cold-cell/markov): the
// measured 81,242 and 13,264 B/op (linux/amd64, go1.24) plus 30%
// headroom. A cell that built its table afresh (1.5 MB for DBCP,
// 640 KiB for Markov) instead of taking the one the last cell of its
// name gave up would fail them.
const (
	maxArenaDBCPBytes   = 81_242 * 13 / 10
	maxArenaMarkovBytes = 13_264 * 13 / 10
)

// maxWarmGroupBytes bounds the bytes of one campaign/shared-prefix/warm
// op: a one-worker campaign whose one prefix group of eight budgets
// captures its warm-up and climbs seven rungs. Its fresh arena builds
// one machine's cache arrays, one checkpoint's and one rung's
// cache-state tables (~440 KB each); the bound is the measured
// 1,600,964 B/op (linux/amd64, go1.24) plus 30% headroom. A rung or
// checkpoint capture that rebuilt its tables would add ~440 KB per
// cell and fail it.
const maxWarmGroupBytes = 1_600_964 * 13 / 10

func bench(name string, f func(b *testing.B)) Result {
	r := testing.Benchmark(f)
	return Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
		WallS:       r.T.Seconds(),
	}
}

func main() {
	var (
		out          = flag.String("out", "BENCH_10.json", "output JSON path")
		scale        = flag.Uint64("scale", 4, "artifact bench scale divisor (MICROLIB_SCALE)")
		artifact     = flag.String("artifact", "fig8", "artifact experiment id for the end-to-end bench")
		skipArtifact = flag.Bool("skip-artifact", false, "skip the (slow) artifact bench")
	)
	flag.Parse()

	rep := Report{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		Scale:        *scale,
		SeedBaseline: seedBaseline,
		Speedup:      map[string]float64{},
	}

	// Kernel microbenchmark: the same canonical steady-state workload
	// the sim and root-package benchmarks measure
	// (sim.RunSteadyState), so the gated workload cannot drift from the
	// documented one.
	kernel := bench("kernel/afterfunc-drain", func(b *testing.B) {
		eng := sim.NewEngine()
		b.ResetTimer()
		sim.RunSteadyState(eng, b.N, true)
	})
	rep.Results = append(rep.Results, kernel)

	// Overflow slab promotion: a window jump carries a whole slab of
	// far-future events into the ring at once (skip phases, warm-state
	// restores), through the batch partition-and-reheapify path.
	const slab = 4096
	slabBatch := bench("kernel/slab-promotion", func(b *testing.B) {
		eng := sim.NewEngine()
		sim.RunSlabPromotion(eng, slab)
		b.ResetTimer()
		var fired uint64
		for i := 0; i < b.N; i++ {
			fired += sim.RunSlabPromotion(eng, slab)
		}
		if fired == 0 {
			b.Fatal("no events ran")
		}
	})
	slabBatch.Extra = map[string]float64{"events_per_op": slab}
	rep.Results = append(rep.Results, slabBatch)

	// Stall-heavy core rows: a tiny single-port, single-MSHR L1D makes
	// the cores absorb a refusal on most submits, which is exactly the
	// regime the structured refusal hints target — a refused submit
	// jumps straight to the hinted retry cycle instead of re-probing
	// the cache every cycle. The cpu package's
	// TestStallHeavyRefusalCounts pins this machine's exact refusal
	// counts, so a regression to cycle-stepping fails there on any
	// host. Incremental chunks keep the warmed machine (and its
	// in-flight state) across iterations.
	const stallChunk = 5_000
	stallHier := func() hier.Config {
		cfg := hier.DefaultConfig()
		cfg.L1D.Size = 1 << 10
		cfg.L1D.Assoc = 1
		cfg.L1D.Ports = 1
		cfg.L1D.MSHRs = 1
		cfg.L1D.ReadsPerMSHR = 1
		return cfg
	}
	// Store-dominated random traffic over a region far beyond L2: a
	// store miss holds the single MSHR for a full memory round trip,
	// so the next submit is refused for that whole span. Built-in
	// profiles top out near 0.13 store fraction — too light to keep
	// the MSHR pinned.
	stallProfile := workload.Profile{
		Name:      "stall-heavy",
		LoadFrac:  0.10,
		StoreFrac: 0.50,
		BlockLen:  12,
		CodeKB:    4,
		Patterns:  []workload.PatternSpec{{Kind: workload.PatRand, Size: 8 << 20}},
		Phases:    []workload.PhaseSpec{{Len: 100_000, Weights: []float64{1}}},
	}
	stallIO := bench("core/stall-heavy/inorder", func(b *testing.B) {
		eng := sim.NewEngine()
		h := hier.Build(eng, stallHier())
		c := cpu.NewInOrder(eng, h, workload.NewGenerator(stallProfile, 1))
		total := uint64(stallChunk)
		c.Run(total)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			total += stallChunk
			c.Run(total)
		}
	})
	stallO3 := bench("core/stall-heavy/ooo", func(b *testing.B) {
		eng := sim.NewEngine()
		h := hier.Build(eng, stallHier())
		o := cpu.NewOoO(eng, cpu.DefaultConfig(), h, workload.NewGenerator(stallProfile, 1))
		total := uint64(stallChunk)
		o.SetStop(total)
		o.Run(math.MaxUint64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			total += stallChunk
			o.SetStop(total)
			o.Run(math.MaxUint64)
		}
	})
	for _, r := range []*Result{&stallIO, &stallO3} {
		r.Extra = map[string]float64{
			"insts_per_op":  stallChunk,
			"insts_per_sec": stallChunk / (r.NsPerOp * 1e-9),
		}
	}
	rep.Results = append(rep.Results, stallIO, stallO3)

	// Eager-writeback drain rows: cache.DrainDirtyLRU on the Table 1
	// 1 MB L2 (4096 sets x 4 ways) at EWB's default batch of 4. Cold
	// drains an empty cache: the dirty-LRU index is all zero words.
	// Warm drains a full cache whose every set has a dirty LRU line,
	// re-dirtying the batch after each drain so every op finds a full
	// batch. Both must allocate nothing.
	const drainBatch = 4
	drainL2 := func(fill bool) *cache.Cache {
		cfg := hier.DefaultConfig().L2
		c := cache.New(sim.NewEngine(), cfg, nil)
		c.TrackDirtyLRU()
		if fill {
			for la := uint64(0); la < uint64(cfg.Size); la += uint64(cfg.LineSize) {
				c.InstallDirect(la, true, 0)
			}
		}
		return c
	}
	drainCold := bench("cache/drain-dirty-lru/cold", func(b *testing.B) {
		c := drainL2(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(c.DrainDirtyLRU(drainBatch)) != 0 {
				b.Fatal("empty cache drained a line")
			}
		}
	})
	drainWarm := bench("cache/drain-dirty-lru/warm", func(b *testing.B) {
		c := drainL2(true)
		c.DrainDirtyLRU(drainBatch) // size the result buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := c.DrainDirtyLRU(drainBatch)
			if len(out) != drainBatch {
				b.Fatal("full dirty cache drained a short batch")
			}
			for _, la := range out {
				c.MarkDirty(la)
			}
		}
	})
	rep.Results = append(rep.Results, drainCold, drainWarm)

	// Shared program images: while one gcc generator is held live, a
	// further NewGenerator of (gcc, seed 1) finds its image in the
	// table and allocates only a cursor and the lookup key — a
	// constant, however much code and data the program holds. The
	// held generator is what keeps the weakly-held image resident;
	// without it every op would rebuild the program.
	gcc, _ := workload.ByName("gcc")
	held := workload.NewGenerator(gcc, 1)
	genShared := bench("workload/new-generator/shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if workload.NewGenerator(gcc, 1).Oracle() != held.Oracle() {
				b.Fatal("generator did not share the live image")
			}
		}
	})
	runtime.KeepAlive(held)
	rep.Results = append(rep.Results, genShared)

	// A campaign worker's cold cell: one store-stall cell (the inline
	// stall-heavy profile on the 1-port 1-MSHR L1D, OoO core) built on
	// the previous cell's machine, as a worker's arena builds it. The
	// caches take the previous machine's line arrays and the generator
	// finds the program image still live in the image table, so what
	// is left per cell is the machine's own fresh state. The vc row is
	// the same cell with a victim cache probed by every refused miss;
	// its vc_over_base is the host-time price of the mechanism. The
	// dbcp and markov rows are the cells of the two mechanisms with the
	// largest tables, each right after an untimed Base cell on the same
	// arena, as rank-grid runs a program's mechanisms one after
	// another: the cell builds its table in the one the last cell of
	// its name gave up.
	coldCell := func(name, mech string, afterBase bool) Result {
		return bench(name, func(b *testing.B) {
			cell := func(mech string) runner.Options {
				opts := runner.DefaultOptions("stall-heavy", mech)
				opts.Workload = &runner.Workload{Profile: &stallProfile}
				opts.Hier = stallHier()
				opts.Warmup, opts.Insts, opts.Seed = 1500, 6000, 1
				return opts
			}
			opts, base := cell(mech), cell(runner.BaseName)
			a := runner.NewArenas(1)[0]
			defer a.Close()
			run := func(opts runner.Options) {
				if _, err := a.Run(context.Background(), opts); err != nil {
					fatal(err)
				}
			}
			run(opts) // warm the arena
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if afterBase {
					b.StopTimer()
					run(base)
					b.StartTimer()
				}
				run(opts)
			}
		})
	}
	arenaCell := coldCell("runner/cold-cell/arena", runner.BaseName, false)
	vcCell := coldCell("runner/cold-cell/vc", "VC", false)
	vcCell.Extra = map[string]float64{"vc_over_base": vcCell.NsPerOp / arenaCell.NsPerOp}
	dbcpCell := coldCell("runner/cold-cell/dbcp", "DBCP", true)
	markovCell := coldCell("runner/cold-cell/markov", "Markov", true)
	rep.Results = append(rep.Results, arenaCell, vcCell, dbcpCell, markovCell)

	// One rung of the budget ladder on a DBCP machine, the mechanism
	// with the largest state: each op is a cell whose budget is
	// FetchReach+8 instructions above the last, so it restores the
	// previous cell's rung, climbs about twice FetchReach instructions
	// and captures the next rung into the same buffers. A capture that
	// rebuilt its buffers would cost over 450 KB per op, the cache
	// line arrays alone.
	rungCapture := bench("runner/rung-capture", func(b *testing.B) {
		opts := runner.DefaultOptions("mcf", "DBCP")
		opts.Warmup, opts.Seed = 5000, 1
		ctx := context.Background()
		ck, err := runner.RunPrefixContext(ctx, opts)
		if err != nil {
			fatal(err)
		}
		a := runner.NewArenas(1)[0]
		defer a.Close()
		prefix := opts.PrefixCanonical()
		step := uint64(opts.CPU.RUUSize+opts.CPU.CommitWidth+opts.CPU.FetchWidth) + 8
		opts.Insts = 2000
		climb := func() bool {
			opts.Insts += step
			_, _, rung, err := a.Restore(ctx, opts, prefix, ck)
			if err != nil {
				fatal(err)
			}
			return rung
		}
		climb() // the machine, the first rung and every buffer it needs
		climb()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !climb() {
				fatal(fmt.Errorf("rung-capture: budget %d did not climb from a rung", opts.Insts))
			}
		}
	})
	rep.Results = append(rep.Results, rungCapture)

	// End-to-end simulator throughput (memory-bound bench + prefetch
	// mechanism exercises the whole event path).
	simThroughput := bench("sim-throughput", func(b *testing.B) {
		opts := runner.DefaultOptions("swim", "GHB")
		opts.Insts = 50_000
		opts.Warmup = 10_000
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := runner.Run(opts); err != nil {
				fatal(err)
			}
		}
	})
	// Each op simulates 60k instructions (10k warm-up + 50k measured).
	simThroughput.Extra = map[string]float64{
		"insts_per_sec": 60_000 / (simThroughput.NsPerOp * 1e-9),
	}
	rep.Results = append(rep.Results, simThroughput)

	// The same run with the interval sampler on: the telemetry
	// overhead row. sampled/unsampled insts_per_sec is the price of
	// time-resolved counters (the sampler is pull-based, so it should
	// be within noise of 1.0).
	simSampled := bench("sim-throughput/interval1000", func(b *testing.B) {
		opts := runner.DefaultOptions("swim", "GHB")
		opts.Insts = 50_000
		opts.Warmup = 10_000
		opts.Interval = 1000
		opts.IntervalSink = func(telemetry.Interval) {}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := runner.Run(opts); err != nil {
				fatal(err)
			}
		}
	})
	simSampled.Extra = map[string]float64{
		"insts_per_sec":         60_000 / (simSampled.NsPerOp * 1e-9),
		"overhead_vs_unsampled": simSampled.NsPerOp / simThroughput.NsPerOp,
	}
	rep.Results = append(rep.Results, simSampled)

	// Shared-prefix sweep, cold vs warm: a geometry-style budget sweep
	// around one base point — eight measured budgets over the same
	// (workload, seed, skip, warm-up, machine) prefix. Cold execution
	// re-simulates the 50k-instruction prefix for every cell; warm
	// execution pays for it once and forks the measurement phase from
	// the checkpoint. One worker, so the ratio is pure prefix
	// amortization, not parallelism. Warm cells climb the budget
	// ladder, so the group simulates its warm-up plus its largest
	// budget, and rung_restores counts the cells that started from a
	// rung. The warm gate below requires warm_speedup >=
	// minWarmSpeedup, and the arena gate bounds the warm row's bytes:
	// one op is one group.
	sweep := campaign.Spec{
		Name:       "mlbench-shared-prefix",
		Benchmarks: []string{"swim"},
		Mechanisms: []string{"GHB"},
		Seeds:      []uint64{1},
		Insts:      []uint64{2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000},
	}
	warmup := uint64(50_000)
	sweep.Warmup = &warmup
	var rungs int
	runSweep := func(noWarm bool) {
		sum, err := campaign.Execute(context.Background(), sweep, campaign.RunConfig{Workers: 1, NoWarm: noWarm})
		if err != nil {
			fatal(err)
		}
		if sum.Sched.Errors > 0 {
			fatal(fmt.Errorf("shared-prefix sweep: %d cells failed", sum.Sched.Errors))
		}
		rungs = sum.Sched.RungRestores
	}
	sweepCold := bench("campaign/shared-prefix/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runSweep(true)
		}
	})
	sweepWarm := bench("campaign/shared-prefix/warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runSweep(false)
		}
	})
	warmSpeedup := sweepCold.NsPerOp / sweepWarm.NsPerOp
	sweepWarm.Extra = map[string]float64{"warm_speedup": warmSpeedup, "rung_restores": float64(rungs)}
	rep.Results = append(rep.Results, sweepCold, sweepWarm)

	// One full artifact experiment, end to end.
	if !*skipArtifact {
		r := experiments.Default().Scale(*scale)
		start := time.Now()
		if _, err := experiments.Run(r, *artifact); err != nil {
			fatal(err)
		}
		rep.Results = append(rep.Results, Result{
			Name:    fmt.Sprintf("artifact/%s/scale%d", *artifact, *scale),
			NsPerOp: float64(time.Since(start).Nanoseconds()),
		})
	}

	for _, res := range rep.Results {
		if base, ok := seedBaseline[res.Name]; ok && res.NsPerOp > 0 {
			rep.Speedup[res.Name] = base.NsPerOp / res.NsPerOp
		}
	}

	// The allocation gate: zero steady-state allocations per
	// scheduled event.
	gateFailed := kernel.AllocsPerOp > 0
	if gateFailed {
		rep.AllocGate = fmt.Sprintf("FAIL: afterfunc-drain=%d allocs/op (want 0)", kernel.AllocsPerOp)
	} else {
		rep.AllocGate = "PASS: 0 allocs/op on the kernel scheduling path"
	}

	// The warm gate: prefix checkpointing and the budget ladder must
	// cut the shared-prefix sweep's wall-clock minWarmSpeedup-fold.
	warmFailed := warmSpeedup < minWarmSpeedup
	if warmFailed {
		rep.WarmGate = fmt.Sprintf("FAIL: shared-prefix sweep warm speedup %.2fx (want >= %gx)", warmSpeedup, minWarmSpeedup)
	} else {
		rep.WarmGate = fmt.Sprintf("PASS: shared-prefix sweep runs %.1fx faster warm than cold", warmSpeedup)
	}

	// The retry gate: the refusal-hint path allocates nothing in
	// steady state on either core. That the hints are taken at all is
	// pinned by exact refusal counts in the cpu package's tests.
	retryFailed := stallIO.AllocsPerOp > 0 || stallO3.AllocsPerOp > 0
	if retryFailed {
		rep.RetryGate = fmt.Sprintf("FAIL: stall-heavy inorder %d allocs/op, ooo %d allocs/op (want 0)",
			stallIO.AllocsPerOp, stallO3.AllocsPerOp)
	} else {
		rep.RetryGate = "PASS: 0 allocs/op on both stall-heavy core rows"
	}

	// The drain gate: an eager-writeback sweep reuses its result buffer
	// and walks a preallocated index, so it allocates nothing.
	drainFailed := drainCold.AllocsPerOp > 0 || drainWarm.AllocsPerOp > 0
	if drainFailed {
		rep.DrainGate = fmt.Sprintf("FAIL: drain-dirty-lru cold %d allocs/op, warm %d allocs/op (want 0)",
			drainCold.AllocsPerOp, drainWarm.AllocsPerOp)
	} else {
		rep.DrainGate = "PASS: 0 allocs/op on both drain-dirty-lru rows"
	}

	// The image gate: a generator of a live (profile, seed) shares its
	// program image, so its construction cost is a small constant. A
	// rebuild allocates thousands of objects (gcc's block templates
	// alone), so losing the sharing fails here.
	imageFailed := genShared.AllocsPerOp > maxSharedGenAllocs
	if imageFailed {
		rep.ImageGate = fmt.Sprintf("FAIL: new-generator/shared %d allocs/op (want <= %d)",
			genShared.AllocsPerOp, maxSharedGenAllocs)
	} else {
		rep.ImageGate = fmt.Sprintf("PASS: new-generator/shared %d allocs/op (<= %d)",
			genShared.AllocsPerOp, maxSharedGenAllocs)
	}

	// The arena gate: a cold cell on a warmed worker arena recycles its
	// cache storage, calendar, window and program image, so it
	// allocates far less than a machine's cache arrays alone, with or
	// without a victim cache. A rung capture reuses the previous rung's
	// buffers, so a ladder step allocates as little as a cold cell. A
	// warm group builds one machine and one set of capture tables. A
	// DBCP or Markov cell after another mechanism's builds no table.
	arenaFailed := arenaCell.BytesPerOp > maxArenaCellBytes || vcCell.BytesPerOp > maxArenaCellBytes ||
		rungCapture.BytesPerOp > maxArenaCellBytes || sweepWarm.BytesPerOp > maxWarmGroupBytes ||
		dbcpCell.BytesPerOp > maxArenaDBCPBytes || markovCell.BytesPerOp > maxArenaMarkovBytes
	arenaRows := fmt.Sprintf("cold-cell/arena %d B/op, %d allocs/op; cold-cell/vc %d B/op, %d allocs/op; rung-capture %d B/op, %d allocs/op",
		arenaCell.BytesPerOp, arenaCell.AllocsPerOp, vcCell.BytesPerOp, vcCell.AllocsPerOp,
		rungCapture.BytesPerOp, rungCapture.AllocsPerOp)
	mechRows := fmt.Sprintf("cold-cell/dbcp %d B/op (<= %d); cold-cell/markov %d B/op (<= %d)",
		dbcpCell.BytesPerOp, maxArenaDBCPBytes, markovCell.BytesPerOp, maxArenaMarkovBytes)
	warmRow := fmt.Sprintf("shared-prefix/warm %d B/group", sweepWarm.BytesPerOp)
	if arenaFailed {
		rep.ArenaGate = fmt.Sprintf("FAIL: %s (want <= %d B/op); %s; %s (want <= %d)", arenaRows, maxArenaCellBytes, mechRows, warmRow, maxWarmGroupBytes)
	} else {
		rep.ArenaGate = fmt.Sprintf("PASS: %s (<= %d B/op); %s; %s (<= %d)", arenaRows, maxArenaCellBytes, mechRows, warmRow, maxWarmGroupBytes)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	os.Stdout.Write(data)
	if gateFailed {
		fmt.Fprintln(os.Stderr, "mlbench:", rep.AllocGate)
	}
	if warmFailed {
		fmt.Fprintln(os.Stderr, "mlbench:", rep.WarmGate)
	}
	if retryFailed {
		fmt.Fprintln(os.Stderr, "mlbench:", rep.RetryGate)
	}
	if drainFailed {
		fmt.Fprintln(os.Stderr, "mlbench:", rep.DrainGate)
	}
	if imageFailed {
		fmt.Fprintln(os.Stderr, "mlbench:", rep.ImageGate)
	}
	if arenaFailed {
		fmt.Fprintln(os.Stderr, "mlbench:", rep.ArenaGate)
	}
	if gateFailed || warmFailed || retryFailed || drainFailed || imageFailed || arenaFailed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mlbench:", err)
	os.Exit(1)
}
