// Command perfbench is the repository benchmark: it runs three
// simulation campaigns through the public campaign.Execute API in one
// process, times them end to end, and checks every cell's simulated
// output against a recorded reference digest.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload rank-grid --seed 3 --seconds 40 --trace 0
//
// Workloads (their campaign specs are specs/<workload>.json):
//
//   - rank-grid: all 26 built-in benchmarks × Base and the 13 registered
//     mechanisms on the OoO core, cold, with two workers. It is the
//     paper's own use — every mechanism on every benchmark under the
//     same conditions — and no two cells share a warm-up prefix, so
//     its time goes to the per-instruction layers (cpu, workload, sim,
//     the cache hit path and the mechanism hooks).
//   - budget-sweep: swim, gzip and mcf × Base, GHB and DBCP × 16
//     measured budgets after one long warm-up, one worker, warm-state
//     checkpointing on. Every cell forks from a shared prefix, so its
//     time goes to runner snapshot/restore and campaign prefix
//     grouping; DBCP's large table next to GHB's small one varies the
//     snapshot size. Its references are recorded cold, so the check
//     also proves warm == cold.
//   - store-stall: a store-dominated random profile plus mcf and lucas
//     × Base, EWB, VC and CDP on both cores, one worker, with a 1 KB
//     direct-mapped single-port single-MSHR L1D. It drives the same
//     cache, bus and memory layers as rank-grid through their refusal,
//     write-back and row-conflict paths instead of the L1 hit path.
//
// With --trace 0 the last stdout line carries the end-to-end metrics:
// medians over the campaigns repeated within --seconds, host times
// scaled to a nominal host speed by a calibration loop run between
// the repetitions (calib.go); with --trace 1 a separate traced run
// derives the per-layer metrics from spans recorded around calls into
// each layer and from the simulator's own counters, and writes the
// spans to .bench_build/perfbench/.
//
// The reference digests live in perfbench/refs/<workload>.json. After
// an intended change to simulated results, re-record them with
//
//	bash perfbench/run.sh --record 3 --workload rank-grid
//
// which simulates every seed slot cold that many times; a mechanism
// whose cells differ between the runs is marked nondeterministic and
// its cells are reported unverified instead of checked.
//
// The simulated model is unvalidated: internal/refdata holds snapshots
// of this repository's own output, not measurements of real hardware,
// so the benchmark gives no error figure. The output check proves only
// that the simulator reproduces its recorded results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// benchDir is the benchmark's directory relative to the repository
// root, the directory every run starts from.
const benchDir = "perfbench"

// result is the last stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: rank-grid, budget-sweep or store-stall")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "measurement time in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer measurement instead")
		record  = flag.Int("record", 0, "record reference digests with this many runs per seed (0: measure)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *name, *seed, *seconds, *traced, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed int64, seconds, traced, record int) error {
	if record > 0 {
		return recordRefs(ctx, name, record)
	}
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	host, err := fingerprint()
	if err != nil {
		return err
	}
	refs, err := loadRefs(w.Name)
	if err != nil {
		return err
	}
	spec, err := w.spec(seed)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(outDir(), "run-")
	if err != nil {
		return fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(work)

	env := &runEnv{w: w, spec: spec, refs: refs, work: work}
	var res result
	var report map[string]any
	if traced == 1 {
		res, report, err = env.traced(ctx)
	} else {
		res, report, err = env.measure(ctx, time.Duration(seconds)*time.Second)
	}
	if err != nil {
		return err
	}
	report["host"] = host
	report["workload"] = w.Name
	report["seed"] = seed
	report["campaign_seeds"] = spec.Seeds
	report["result"] = res
	if err := writeOut(fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, seed, traced), report); err != nil {
		return err
	}
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// outDir is where runs keep scratch state and reports: under
// $CARGO_TARGET_DIR when set, else .bench_build, inside the checkout
// like the build itself (see run.sh).
func outDir() string {
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	dir := filepath.Join(base, "perfbench")
	os.MkdirAll(dir, 0o755)
	return dir
}

// writeOut writes v as JSON to the named file under outDir.
func writeOut(name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := os.WriteFile(filepath.Join(outDir(), name), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}
