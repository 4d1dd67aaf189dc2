package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"microlib/internal/bus"
	"microlib/internal/cache"
	"microlib/internal/campaign"
	"microlib/internal/core"
	"microlib/internal/cpu"
	"microlib/internal/hier"
	"microlib/internal/mem"
	"microlib/internal/runner"
	"microlib/internal/sim"
	"microlib/internal/trace"
	"microlib/internal/workload"
)

// handStats are the timings and counters of hand-assembled machines.
type handStats struct {
	run, gen time.Duration
	counts   counts
}

// generator builds the cell's instruction source, as the runner does.
func generator(opts runner.Options) (*workload.Generator, error) {
	if opts.Workload != nil {
		if opts.Workload.Profile == nil {
			return nil, fmt.Errorf("%s: only profile workloads can be hand-assembled", opts.Bench)
		}
		return workload.NewGenerator(*opts.Workload.Profile, opts.Seed), nil
	}
	return workload.New(opts.Bench, opts.Seed)
}

// handMachine wires one cell's machine from the layer constructors —
// engine, hierarchy, mechanism, generator, core — runs its whole
// budget cold, then runs the same generator alone for the committed
// instruction count. The difference of the two times is the machine's
// cost without its instruction source.
func handMachine(tr *tracer, parent int, opts runner.Options) (handStats, error) {
	gen, err := generator(opts)
	if err != nil {
		return handStats{}, err
	}
	eng := sim.NewEngine()
	h := hier.Build(eng, opts.Hier)
	if opts.Mechanism != "" && opts.Mechanism != runner.BaseName {
		env := &core.Env{Eng: eng, L1D: h.L1D, L2: h.L2, Values: gen.Oracle()}
		if _, err := core.New(opts.Mechanism, env, opts.Params); err != nil {
			return handStats{}, err
		}
	}
	if opts.QueueOverride > 0 {
		h.L1D.ForcePrefetchQueueCap(opts.QueueOverride)
		h.L2.ForcePrefetchQueueCap(opts.QueueOverride)
	}
	if opts.PrefetchAsDemand {
		h.L1D.SetPrefetchAsDemand(true)
		h.L2.SetPrefetchAsDemand(true)
	}
	var stream trace.Stream = gen
	if opts.Skip > 0 {
		stream = trace.Skip(stream, opts.Skip)
	}
	total := opts.Warmup + opts.Insts
	var run func() cpu.Result
	if opts.InOrder {
		c := cpu.NewInOrder(eng, h, stream)
		run = func() cpu.Result { return c.Run(total) }
	} else {
		c := cpu.NewOoO(eng, opts.CPU, h, stream)
		run = func() cpu.Result { return c.Run(total) }
	}
	var res cpu.Result
	runTime, _ := tr.timed(parent, "cpu.Run", func() error {
		res = run()
		return nil
	})

	alone, err := generator(opts)
	if err != nil {
		return handStats{}, err
	}
	var inst trace.Inst
	genTime, _ := tr.timed(parent, "workload.Next", func() error {
		for i := uint64(0); i < opts.Skip+res.Insts; i++ {
			alone.Next(&inst)
		}
		return nil
	})

	_, executed := eng.Stats()
	transfers, busy, wait := h.FSB.Stats()
	return handStats{run: runTime, gen: genTime, counts: counts{
		"hand.insts":      res.Insts,
		"hand.cycles":     res.Cycles,
		"sim.events":      executed,
		"fsb.transfers":   transfers,
		"fsb.busy_cycles": busy,
		"fsb.wait_cycles": wait,
		"hand.generated":  opts.Skip + res.Insts,
	}}, nil
}

// handProbe hand-assembles the first sampled cell of every warm-up
// prefix group.
func handProbe(tr *tracer, sample []replayCell) (handStats, error) {
	st := handStats{counts: counts{}}
	root := tr.open(0, "hand")
	seen := map[string]bool{}
	for _, rc := range sample {
		p := rc.cell.Opts.PrefixFingerprint()
		if seen[p] {
			continue
		}
		seen[p] = true
		cell := tr.open(root, "machine")
		hs, err := handMachine(tr, cell, rc.cell.Opts)
		tr.close(cell)
		if err != nil {
			return st, fmt.Errorf("hand-assembled %s: %w", rc.label, err)
		}
		st.run += hs.run
		st.gen += hs.gen
		st.counts.add(hs.counts)
	}
	tr.close(root)
	return st, nil
}

// probeReps is how many times each standalone layer probe runs; the
// median is reported.
const probeReps = 5

// standalone times each layer's public entry point on its own and
// returns nanoseconds per operation.
func standalone(tr *tracer) map[string]float64 {
	probes := []struct {
		name string
		f    func() (ops int)
	}{
		{"sim.ns_per_event", probeEngine},
		{"cache.access_ns_hit", probeCacheHit},
		{"cache.access_ns_miss", probeCacheMiss},
		{"bus.reserve_ns", probeBus},
		{"mem.enqueue_ns", probeSDRAM},
	}
	root := tr.open(0, "standalone")
	out := map[string]float64{}
	for _, p := range probes {
		var per []float64
		for i := 0; i < probeReps; i++ {
			var ops int
			d, _ := tr.timed(root, p.name, func() error {
				ops = p.f()
				return nil
			})
			per = append(per, float64(d.Nanoseconds())/float64(ops))
		}
		out[p.name] = median(per)
	}
	tr.close(root)
	return out
}

// probeEngine runs the kernel's canonical steady-state workload on the
// pooled scheduling path.
func probeEngine() int {
	return int(sim.RunSteadyState(sim.NewEngine(), 1<<18, true))
}

// constBackend fills every line a fixed number of cycles after the
// request, so a cache probe measures the cache alone.
type constBackend struct {
	eng     *sim.Engine
	latency uint64
}

func fillLine(now uint64, o1, _ any, lineAddr, _ uint64) {
	o1.(cache.FillSink).FillLine(lineAddr, now)
}

func (b *constBackend) Fetch(lineAddr, _ uint64, _ bool, sink cache.FillSink) bool {
	b.eng.AfterFunc(b.latency, fillLine, sink, nil, lineAddr, 0)
	return true
}
func (b *constBackend) WriteBack(uint64) bool { return true }
func (b *constBackend) FreeAtHint() uint64    { return 0 }

var noteDone = cache.DoneFunc(func(uint64, bool) {})

// submit retries a refused access one cycle later until it is taken.
func submit(eng *sim.Engine, c *cache.Cache, a *cache.Access) {
	for !c.Access(a).Accepted() {
		eng.AdvanceTo(eng.Now() + 1)
	}
}

// probeCacheHit times accesses to lines resident in a Table 1 L1D.
func probeCacheHit() int {
	const lines, n = 256, 1 << 18
	eng := sim.NewEngine()
	cfg := hier.DefaultConfig().L1D
	c := cache.New(eng, cfg, &constBackend{eng: eng, latency: 20})
	a := cache.Access{Done: noteDone}
	for i := 0; i < lines; i++ {
		a.Addr = uint64(i * cfg.LineSize)
		submit(eng, c, &a)
	}
	eng.Drain(^uint64(0))
	for i := 0; i < n; i++ {
		a.Addr = uint64(i%lines) * uint64(cfg.LineSize)
		submit(eng, c, &a)
	}
	eng.Drain(^uint64(0))
	return n
}

// probeCacheMiss times a stream of accesses that all miss, each
// filled by the constant-latency backend.
func probeCacheMiss() int {
	const n = 1 << 16
	eng := sim.NewEngine()
	cfg := hier.DefaultConfig().L1D
	c := cache.New(eng, cfg, &constBackend{eng: eng, latency: 20})
	a := cache.Access{Done: noteDone}
	for i := 0; i < n; i++ {
		a.Addr = uint64(i) * uint64(cfg.LineSize)
		submit(eng, c, &a)
	}
	eng.Drain(^uint64(0))
	return n
}

var busSink uint64

// probeBus reserves the front-side bus for line transfers arriving
// slightly faster than it drains.
func probeBus() int {
	const n = 1 << 22
	b := bus.New("fsb", 64, 5)
	var now, done uint64
	for i := 0; i < n; i++ {
		done = b.Reserve(now, 64)
		now += 4
	}
	busSink += done
	return n
}

// probeSDRAM enqueues random line reads and write-backs into the
// Table 1 SDRAM and runs the controller until every request finished.
func probeSDRAM() int {
	const n = 1 << 15
	eng := sim.NewEngine()
	s := mem.NewSDRAM(eng, mem.DefaultSDRAMConfig())
	rng := rand.New(rand.NewSource(1))
	reqs := make([]mem.Req, n)
	for i := range reqs {
		reqs[i] = mem.Req{Addr: uint64(rng.Intn(1<<20)) * 64, Size: 64, Write: i%4 == 3}
	}
	for i := range reqs {
		for !s.Enqueue(&reqs[i]) {
			eng.AdvanceTo(eng.Now() + 1)
		}
	}
	eng.Drain(^uint64(0))
	return n
}

// mechRatios derives mech.<Name>.cell_ms_ratio: for every registered
// mechanism, the median over the workload's cells of the cell's wall
// time over the Base cell that differs from it only in the mechanism.
// Walls come from the traced campaigns; a mechanism the workload does
// not sweep is timed instead by cold runs of the sampled Base cells,
// one per benchmark, with the mechanism swapped in.
func mechRatios(ctx context.Context, tr *tracer, reps []*rep, sample []replayCell) (map[string]float64, error) {
	// Median wall per cell over the traced campaigns.
	walls := map[string][]float64{}
	cells := map[string]campaign.Cell{}
	for _, r := range reps {
		for _, c := range r.cells {
			walls[c.cell.Key] = append(walls[c.cell.Key], float64(c.wall))
			cells[c.cell.Key] = c.cell
		}
	}
	base := map[string]float64{}
	for k, c := range cells {
		if c.Mech() == runner.BaseName {
			base[withoutMech(c)] = median(walls[k])
		}
	}
	perMech := map[string][]float64{}
	for k, c := range cells {
		if b, ok := base[withoutMech(c)]; ok && c.Mech() != runner.BaseName && b > 0 {
			perMech[c.Mech()] = append(perMech[c.Mech()], median(walls[k])/b)
		}
	}

	var probe []campaign.Cell
	benches := map[string]bool{}
	for _, rc := range sample {
		if rc.cell.Mech() == runner.BaseName && !benches[rc.cell.Bench()] {
			benches[rc.cell.Bench()] = true
			probe = append(probe, rc.cell)
		}
	}
	root := tr.open(0, "mech-probe")
	defer tr.close(root)
	baseWall := map[string]time.Duration{}
	for _, m := range core.Names() {
		if _, ok := perMech[m]; ok {
			continue
		}
		for _, c := range probe {
			if _, ok := baseWall[c.Key]; !ok {
				d, err := tr.timed(root, "run", func() error {
					_, err := runner.RunContext(ctx, c.Opts)
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("mechanism probe Base %s: %w", c.Bench(), err)
				}
				baseWall[c.Key] = d
			}
			opts := c.Opts
			opts.Mechanism = m
			d, err := tr.timed(root, "run", func() error {
				_, err := runner.RunContext(ctx, opts)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("mechanism probe %s %s: %w", m, c.Bench(), err)
			}
			perMech[m] = append(perMech[m], float64(d)/float64(baseWall[c.Key]))
		}
	}
	out := map[string]float64{}
	for m, rs := range perMech {
		out[m] = median(rs)
	}
	return out, nil
}

// withoutMech identifies a cell's coordinates except the mechanism.
func withoutMech(c campaign.Cell) string {
	var key strings.Builder
	for _, v := range c.Values {
		if v.Axis != campaign.AxisMech {
			key.WriteString(v.Value + "|")
		}
	}
	return key.String()
}
