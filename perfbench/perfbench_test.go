package main

import (
	"context"
	"math"
	"os"
	"testing"
	"time"

	"microlib/internal/campaign"
	"microlib/internal/runner"
)

// The benchmark resolves its files from the repository root, the
// directory it is run from.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {25, 1.75}, {50, 2.5}, {90, 3.7}, {100, 4},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile sorted its input: %v", xs)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd sample = %v, want 3", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of empty sample = %v, want NaN", got)
	}
}

func TestDigestSeesEveryField(t *testing.T) {
	base := record{Cycles: 100, Insts: 50, IPC: 0.5, AvgReadLatency: 80}
	if base.digest() != base.digest() {
		t.Fatal("digest is not deterministic")
	}
	changed := []record{base, base, base, base}
	changed[0].Cycles++
	changed[1].IPC = math.Nextafter(base.IPC, 1)
	changed[2].Refusals.RetryMSHR = 1
	changed[3].PrefetchUseful = 1
	for i, r := range changed {
		if r.digest() == base.digest() {
			t.Errorf("change %d left the digest unchanged", i)
		}
	}
}

// A cell the benchmark simulates through the runner must digest the
// same as the cell the campaign stored.
func TestRunnerRecordMatchesCampaign(t *testing.T) {
	warmup := uint64(2_000)
	spec := campaign.Spec{
		Name:       "digest-test",
		Benchmarks: []string{"gzip", "swim"},
		Mechanisms: []string{"Base", "GHB", "VC"},
		Insts:      []uint64{5_000},
		Warmup:     &warmup,
		Seeds:      []uint64{3},
	}
	plan, err := campaign.NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := executeForDigests(context.Background(), spec, plan, t.TempDir(), campaign.RunConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range plan.Cells {
		full, err := runner.Run(c.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := runnerRecord(full).digest(); d != got[cellKey(plan, c)] {
			t.Errorf("%s: runner digest %s, campaign digest %s", cellKey(plan, c), d, got[cellKey(plan, c)])
		}
	}
}

func TestCampaignSeeds(t *testing.T) {
	w := workloadDef{Seeds: 3}
	if got := w.campaignSeeds(0); got[0] != 1 || got[2] != 3 {
		t.Errorf("slot 0 seeds = %v", got)
	}
	if a, b := w.campaignSeeds(5), w.campaignSeeds(5+seedPool); a[0] != b[0] {
		t.Errorf("seed folding: %v vs %v", a, b)
	}
	if got := w.campaignSeeds(-1); got[0] != uint64(seedPool-1)*3+1 {
		t.Errorf("negative seed folds to %v", got)
	}
	seen := map[uint64]bool{}
	for s := int64(0); s < seedPool; s++ {
		for _, v := range w.campaignSeeds(s) {
			if seen[v] {
				t.Fatalf("generator seed %d used by two slots", v)
			}
			seen[v] = true
		}
	}
}

// Every workload's spec loads and expands to the planned cells, and
// its reference file covers every cell of every seed slot.
func TestSpecsAndReferences(t *testing.T) {
	wantCells := map[string]int{"rank-grid": 364, "budget-sweep": 576, "store-stall": 240}
	for _, w := range workloads {
		spec, err := w.spec(1)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := campaign.NewPlan(spec)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(plan.Cells) != wantCells[w.Name] {
			t.Errorf("%s: %d cells, want %d", w.Name, len(plan.Cells), wantCells[w.Name])
		}
		r, err := loadRefs(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Digests) != seedPool*w.Seeds {
			t.Errorf("%s: references for %d seeds, want %d", w.Name, len(r.Digests), seedPool*w.Seeds)
		}
		labels := map[string]bool{}
		for _, c := range plan.Cells {
			l := cellLabel(plan, c)
			if c.Seed() == spec.Seeds[0] {
				if labels[l] {
					t.Errorf("%s: label %q names two cells", w.Name, l)
				}
				labels[l] = true
			}
			if _, ok := r.index[l]; !ok {
				t.Errorf("%s: no reference label %q", w.Name, l)
			}
		}
	}
	if _, err := lookupWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRefsCheck(t *testing.T) {
	r := &refs{
		Nondeterministic: []string{"TK"},
		Labels:           []string{"bench=a mech=Base", "bench=a mech=TK"},
		Digests:          map[string][]string{"1": {"aaaa", ""}},
		index:            map[string]int{"bench=a mech=Base": 0, "bench=a mech=TK": 1},
	}
	for _, tc := range []struct {
		seed        uint64
		label, mech string
		digest      string
		want        verdict
	}{
		{1, "bench=a mech=Base", "Base", "aaaa", verified},
		{1, "bench=a mech=Base", "Base", "bbbb", failed},
		{1, "bench=a mech=Base", "Base", "", failed},
		{1, "bench=a mech=TK", "TK", "cccc", unverified},
		{2, "bench=a mech=Base", "Base", "aaaa", failed},
		{1, "bench=b mech=Base", "Base", "aaaa", failed},
	} {
		if got, why := r.check(tc.seed, tc.label, tc.mech, tc.digest); got != tc.want {
			t.Errorf("check(%d, %q, %q) = %v (%s), want %v", tc.seed, tc.label, tc.digest, got, why, tc.want)
		}
	}
	// An empty reference for a mechanism not marked nondeterministic
	// is a failure, not a pass.
	r.Nondeterministic = nil
	if got, _ := r.check(1, "bench=a mech=TK", "TK", "cccc"); got != failed {
		t.Errorf("unexplained missing reference = %v, want failed", got)
	}
}

func TestReconcile(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "cell", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "prefix", Start: 0, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "fork", Start: 5 * ms, End: 9 * ms},
		{ID: 4, Name: "cell", Start: 10 * ms, End: 20 * ms},
		{ID: 5, Parent: 4, Name: "fork", Start: 10 * ms, End: 20 * ms},
	}
	got, err := reconcile(spans, "cell")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.1) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.1", got)
	}
	spans[4].End = 21 * ms
	if _, err := reconcile(spans, "cell"); err == nil {
		t.Error("child outside its parent accepted")
	}
}

func TestDiffCounts(t *testing.T) {
	a := counts{"x": 1, "y": 2}
	if d := diffCounts(a, counts{"x": 1, "y": 2}); len(d) != 0 {
		t.Errorf("equal counts differ: %v", d)
	}
	if d := diffCounts(a, counts{"x": 1, "y": 3, "z": 0}); len(d) != 2 {
		t.Errorf("want 2 differences, got %v", d)
	}
}

// A traced campaign on two workers records every cell once, with
// consistent timings, and yields campaign-layer metrics in range.
func TestExecuteTraced(t *testing.T) {
	warmup := uint64(1_000)
	env := &runEnv{
		w: workloadDef{Name: "test", Workers: 2},
		spec: campaign.Spec{
			Name:       "execute-test",
			Benchmarks: []string{"gzip", "mcf"},
			Mechanisms: []string{"Base", "SP"},
			Insts:      []uint64{3_000},
			Warmup:     &warmup,
			Seeds:      []uint64{1, 2},
		},
		work: t.TempDir(),
	}
	plan, err := campaign.NewPlan(env.spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := env.execute(context.Background(), plan, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.cells) != len(plan.Cells) || len(r.digests) != len(plan.Cells) {
		t.Fatalf("%d timings, %d digests for %d cells", len(r.cells), len(r.digests), len(plan.Cells))
	}
	for _, c := range r.cells {
		if c.start.Before(r.firstStart) || c.end.Before(c.start) || c.end.After(r.end) {
			t.Errorf("cell %s timed outside its campaign", c.cell.Key)
		}
	}
	busy, drain, overhead := traceCampaign(newTracer(), r, env.w.workers())
	if busy <= 0 || busy > 1 || drain < 0 || overhead < 0 {
		t.Errorf("busy %v, drain %v, overhead %v ms", busy, drain, overhead)
	}
	if d, err := env.setupOnly(context.Background()); err != nil || d <= 0 {
		t.Errorf("set-up probe: %v, %v", d, err)
	}
}

func TestAdjustFactor(t *testing.T) {
	if f := adjustFactor(calibNominal, calibNominal); f != 1 {
		t.Errorf("nominal host: factor %v, want 1", f)
	}
	// A host running the loop at half speed doubles raw times; the
	// factor halves them back.
	if f := adjustFactor(2*calibNominal, 2*calibNominal); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("half-speed host: factor %v, want 0.5", f)
	}
	if f := adjustFactor(calibNominal, 3*calibNominal); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("factor %v, want the mean of both calibrations to count", f)
	}
	h := &hostSpeed{}
	if f := h.next(); f != 1 || len(h.samples) != 1 || h.last <= 0 {
		t.Errorf("first calibration: factor %v, %d samples", f, len(h.samples))
	}
}
