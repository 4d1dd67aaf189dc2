package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"microlib/internal/fault"
)

// chaosConfig is the chaos suite's run configuration for one seed: a
// fault schedule of cache read/write errors, corruption, cell panics
// and stalls, with per-cell deadlines and retries to contain them.
func chaosConfig(seed uint64) RunConfig {
	inj := fault.New(seed).
		Enable(fault.CachePutError, 0.4).
		Enable(fault.CacheGetError, 0.3).
		Enable(fault.CacheGetCorrupt, 0.3).
		Enable(fault.CellPanic, 0.25).Limit(fault.CellPanic, 2).
		Enable(fault.CellSlow, 0.25).Limit(fault.CellSlow, 2)
	inj.SlowFor = 10 * time.Second
	return RunConfig{
		Workers:     2,
		CellTimeout: 200 * time.Millisecond,
		Retry:       &RetryPolicy{Max: 2, BaseDelay: time.Millisecond},
		Faults:      inj,
	}
}

// The chaos suite: run campaigns under randomized-but-deterministic
// fault schedules (cache read/write errors, corruption, cell panics,
// stalls) and assert the containment invariants hold — no goroutine
// leaks, well-formed JSONL journals, and bit-identical convergence
// when the faults clear.
func TestChaosCampaignsConverge(t *testing.T) {
	// Reference: the spec's true scenario table, computed fault-free.
	ref, err := Execute(context.Background(), tinySpec(), RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cache")
			var journal bytes.Buffer
			cfg := chaosConfig(seed)
			cfg.CacheDir, cfg.Journal = dir, &journal
			sum, err := Execute(context.Background(), tinySpec(), cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Invariant 1: the campaign completes — every cell is
			// accounted for, failed or not, and failures are typed.
			if sum.Sched.Completed != 8 {
				t.Fatalf("faults must not lose cells: %+v", sum.Sched)
			}
			total := 0
			for kind, n := range sum.Sched.FailedKinds {
				if ErrKind(kind) != KindPanic && ErrKind(kind) != KindTimeout {
					t.Fatalf("unexpected failure kind %q under this schedule", kind)
				}
				total += n
			}
			if total != sum.Sched.Errors {
				t.Fatalf("kind counts must sum to Errors: %+v", sum.Sched)
			}

			// Invariant 2: the journal is line-by-line valid JSON with
			// a footer, whatever the faults did.
			lines := bytes.Split(bytes.TrimSuffix(journal.Bytes(), []byte("\n")), []byte("\n"))
			for i, ln := range lines {
				if !json.Valid(ln) {
					t.Fatalf("journal line %d is not JSON: %q", i+1, ln)
				}
			}
			evs := readJournalStrict(t, journal.Bytes())
			if evs[len(evs)-1].Ev != EvEnd {
				t.Fatal("journal must end with a footer")
			}

			// Invariant 3: once the faults clear, a rerun against the
			// same (possibly degraded) cache converges to the exact
			// fault-free result.
			sum2, err := Execute(context.Background(), tinySpec(), RunConfig{
				Workers:  2,
				CacheDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if sum2.Sched.Errors != 0 || sum2.Sched.Completed != 8 {
				t.Fatalf("fault-free rerun must fully succeed: %+v", sum2.Sched)
			}
			if !reflect.DeepEqual(sum2.Scenarios, ref.Scenarios) {
				t.Fatalf("chaos run left a diverging cache:\n got %+v\nwant %+v", sum2.Scenarios, ref.Scenarios)
			}
		})
	}

	// Invariant 4: nothing leaked across any schedule.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d -> %d\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// The -faults CLI grammar drives the same machinery: a parsed
// schedule behaves like a hand-built one.
func TestChaosParsedScheduleRuns(t *testing.T) {
	inj, err := fault.Parse("cell.panic=1@1,cache.put.error=0.5", 7)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Execute(context.Background(), tinySpec(), RunConfig{
		Workers:  2,
		CacheDir: filepath.Join(t.TempDir(), "cache"),
		Faults:   inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sched.FailedKinds[string(KindPanic)] != 1 {
		t.Fatalf("parsed cell.panic=1@1 must panic exactly one cell: %+v", sum.Sched)
	}
	if sum.Sched.Completed != 8 {
		t.Fatalf("campaign must complete: %+v", sum.Sched)
	}
}
