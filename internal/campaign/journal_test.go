package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"microlib/internal/fault"
	"microlib/internal/telemetry"
)

// readJournalStrict parses the journal and additionally insists every
// line is valid JSON on its own — the well-formed-JSONL contract a
// crashed campaign relies on.
func readJournalStrict(t *testing.T, data []byte) []JournalEvent {
	t.Helper()
	for i, line := range bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("journal line %d is not valid JSON: %q", i+1, line)
		}
	}
	evs, err := ReadJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// onJournalLine returns a journal sink that hands every line, decoded,
// to fn as it is written (the journal encoder writes a line per Write).
func onJournalLine(t *testing.T, fn func(JournalEvent)) io.Writer {
	return writerFunc(func(p []byte) (int, error) {
		var e JournalEvent
		if err := json.Unmarshal(p, &e); err != nil {
			t.Errorf("journal line %q: %v", p, err)
		}
		fn(e)
		return len(p), nil
	})
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// Every view of a run is a fold over the same events, so the journal's
// digest, the live snapshot and the scheduler's returned stats agree
// field for field: on a warm run (prefix runs, checkpoint hits), one
// whose first cache write fails once (a cache.put retry), one that
// stalls, each chaos schedule (failures, retries, degradations), and
// both runs of an interrupted-then-resumed journal.
func TestJournalFoldMatchesStats(t *testing.T) {
	ctx := context.Background()
	agree := func(t *testing.T, journal []byte, sched SchedulerStats, live *LiveStats) {
		t.Helper()
		st, err := SummarizeJournal(readJournalStrict(t, journal))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.SchedulerStats, sched) {
			t.Fatalf("journal folds to\n%+v\nscheduler counted\n%+v", st.SchedulerStats, sched)
		}
		snap := live.Snapshot()
		if !reflect.DeepEqual(snap.SchedulerStats, sched) {
			t.Fatalf("live view reads\n%+v\nscheduler counted\n%+v", snap.SchedulerStats, sched)
		}
		if st.Insts != snap.Insts {
			t.Fatalf("journal counts %d simulated instructions, live view %d", st.Insts, snap.Insts)
		}
	}
	run := func(t *testing.T, spec Spec, cfg RunConfig) SchedulerStats {
		t.Helper()
		var journal bytes.Buffer
		live := &LiveStats{}
		cfg.CacheDir = filepath.Join(t.TempDir(), "cache")
		if cfg.Journal != nil { // the subtest reads the journal too
			cfg.Journal = io.MultiWriter(&journal, cfg.Journal)
		} else {
			cfg.Journal = &journal
		}
		cfg.Live = live
		sum, err := Execute(ctx, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		agree(t, journal.Bytes(), sum.Sched, live)
		return sum.Sched
	}

	t.Run("warm", func(t *testing.T) {
		if st := run(t, warmSpec(), RunConfig{Workers: 2}); st.PrefixRuns != 4 || st.CheckpointHits != 12 {
			t.Fatalf("warm run: %+v", st)
		}
	})
	t.Run("rungs", func(t *testing.T) {
		// One worker: every budget but a group's smallest climbs from
		// the rung its predecessor left, and is charged only the
		// instructions it simulated past that rung.
		plan, err := NewPlan(warmSpec())
		if err != nil {
			t.Fatal(err)
		}
		budget := map[string]uint64{}
		for _, c := range plan.Cells {
			budget[c.Key] = c.Opts.Insts
		}
		rung, insts := map[string]bool{}, map[string]uint64{}
		// One worker: a prefix run line is followed by the cell_done
		// of the cell whose attempt captured it. That cell's wall time
		// includes the capture; its rate must not.
		var capture *JournalEvent
		captured := 0
		sink := onJournalLine(t, func(e JournalEvent) {
			switch {
			case e.Ev == EvPrefix && e.Op == "rung":
				rung[e.Key] = true
			case e.Ev == EvPrefix && e.Op == "run":
				if e.WallMS <= 0 || e.Insts < 500 || e.Insts > 600 || e.InstsPerSec <= 0 {
					t.Errorf("prefix run line for a 500-instruction warm-up reads %.3f ms, %d insts, %.0f insts/s",
						e.WallMS, e.Insts, e.InstsPerSec)
				}
				capture = &e
			case e.Ev == EvCellDone:
				insts[e.Key] = e.Insts
				if capture != nil {
					want := float64(e.Insts) / ((e.WallMS - capture.WallMS) / 1e3)
					if math.Abs(e.InstsPerSec-want) > 1e-6*want {
						t.Errorf("capturing cell %s reads %.0f insts/s, want %.0f (%d insts in %.3f ms minus the %.3f ms capture)",
							e.Key, e.InstsPerSec, want, e.Insts, e.WallMS, capture.WallMS)
					}
					capture = nil
					captured++
				}
			}
		})
		if st := run(t, warmSpec(), RunConfig{Workers: 1, Journal: sink}); st.CheckpointHits != 12 || st.RungRestores != 8 {
			t.Fatalf("ladder run: %+v", st)
		}
		if len(rung) != 8 || captured != 4 {
			t.Fatalf("want 8 rung cells and 4 capturing cells in the journal, got %d and %d", len(rung), captured)
		}
		for k := range rung {
			if insts[k] == 0 || insts[k] >= budget[k] {
				t.Fatalf("rung cell %s charged %d insts for a budget of %d", k, insts[k], budget[k])
			}
		}
	})
	t.Run("cache-put-retry", func(t *testing.T) {
		inj, err := fault.Parse("cache.put.error=1@1", 1)
		if err != nil {
			t.Fatal(err)
		}
		st := run(t, warmSpec(), RunConfig{Workers: 2, Faults: inj, Retry: &RetryPolicy{Max: 2, BaseDelay: time.Millisecond}})
		if st.Retries != 1 || st.Degraded != 0 {
			t.Fatalf("one failed put retried once, nothing lost: %+v", st)
		}
	})
	t.Run("stall", func(t *testing.T) {
		inj := fault.New(1).Enable(fault.CellSlow, 1).Limit(fault.CellSlow, 1)
		inj.SlowFor = 500 * time.Millisecond
		st := run(t, tinySpec(), RunConfig{Workers: 1, Faults: inj, StallFactor: 1, StallMin: 20 * time.Millisecond})
		if st.Stalls == 0 {
			t.Fatalf("a 500ms quiet spell over a 20ms floor must flag: %+v", st)
		}
	})
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("chaos-seed%d", seed), func(t *testing.T) {
			run(t, tinySpec(), chaosConfig(seed))
		})
	}
	t.Run("resume", func(t *testing.T) {
		journalPath, _, first, err := runToJournal(t, t.TempDir(), 3)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted run: %v", err)
		}
		// The aborted run's journal folds to its partial stats too.
		data, err := os.ReadFile(journalPath)
		if err != nil {
			t.Fatal(err)
		}
		st, err := SummarizeJournal(readJournalStrict(t, data))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.SchedulerStats, first.Sched) {
			t.Fatalf("interrupted run folds to %+v, scheduler counted %+v", st.SchedulerStats, first.Sched)
		}

		live := &LiveStats{}
		sum, _, err := Resume(ctx, journalPath, RunConfig{Workers: 2, Live: live})
		if err != nil {
			t.Fatal(err)
		}
		if data, err = os.ReadFile(journalPath); err != nil {
			t.Fatal(err)
		}
		agree(t, data, sum.Sched, live)
	})
}

func TestJournalCompleteRun(t *testing.T) {
	var buf bytes.Buffer
	live := &LiveStats{}
	sum, err := Execute(context.Background(), tinySpec(), RunConfig{
		Workers: 2,
		Journal: &buf,
		Live:    live,
	})
	if err != nil {
		t.Fatal(err)
	}

	evs := readJournalStrict(t, buf.Bytes())
	if evs[0].Ev != EvStart || evs[len(evs)-1].Ev != EvEnd {
		t.Fatalf("journal must be start...end, got %s...%s", evs[0].Ev, evs[len(evs)-1].Ev)
	}
	if evs[0].Campaign != "tiny" || evs[0].Cells != 8 || evs[0].Workers != 2 || evs[0].Plan == "" {
		t.Fatalf("start header: %+v", evs[0])
	}
	var starts, dones int
	for _, e := range evs {
		switch e.Ev {
		case EvCellStart:
			starts++
		case EvCellDone:
			dones++
			if e.Source != "sim" || e.Key == "" || e.Bench == "" || e.Mech == "" {
				t.Fatalf("cell_done: %+v", e)
			}
			if e.WallMS <= 0 || e.Insts == 0 || e.InstsPerSec <= 0 {
				t.Fatalf("simulated cell must carry timing: %+v", e)
			}
		}
	}
	if starts != 8 || dones != 8 {
		t.Fatalf("starts=%d dones=%d, want 8/8", starts, dones)
	}
	end := evs[len(evs)-1]
	if end.Aborted || end.Completed != 8 || end.Simulated != 8 || end.WallS <= 0 {
		t.Fatalf("end footer: %+v", end)
	}

	st, err := SummarizeJournal(evs)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.Aborted || st.Completed != 8 || st.Simulated != 8 || st.Errors != 0 {
		t.Fatalf("status: %+v", st)
	}
	if len(st.Slowest) == 0 || len(st.Slowest) > 5 {
		t.Fatalf("slowest list: %d entries", len(st.Slowest))
	}
	for i := 1; i < len(st.Slowest); i++ {
		if st.Slowest[i].WallMS > st.Slowest[i-1].WallMS {
			t.Fatal("slowest cells must be sorted descending")
		}
	}
	text := st.Text()
	for _, want := range []string{"tiny", "8/8 done", "8 simulated", "completed in", "slowest cells"} {
		if !strings.Contains(text, want) {
			t.Fatalf("status text missing %q:\n%s", want, text)
		}
	}

	// The live stats agree with the journal.
	s := live.Snapshot()
	if s.Completed != 8 || s.Simulated != 8 || s.Running != 0 || s.Insts == 0 || s.Utilization <= 0 {
		t.Fatalf("live snapshot: %+v", s)
	}
	if sum.Sched.Simulated != 8 {
		t.Fatalf("sched stats: %+v", sum.Sched)
	}
}

// The cancellation satellite: a campaign killed mid-run must leave a
// well-formed journal whose final event records the abort, and the
// scheduler must not leak worker goroutines.
func TestJournalCancellationRecordsAbort(t *testing.T) {
	before := runtime.NumGoroutine()

	dir := filepath.Join(t.TempDir(), "cache")
	spec := tinySpec()
	spec.Seeds = []uint64{1, 2, 3, 4} // 16 cells
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var buf bytes.Buffer
	_, err := Execute(ctx, spec, RunConfig{
		Workers:  2,
		CacheDir: dir,
		Journal:  &buf,
		OnProgress: func(p Progress) {
			if p.Done >= 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	evs := readJournalStrict(t, buf.Bytes())
	end := evs[len(evs)-1]
	if end.Ev != EvEnd {
		t.Fatalf("final event must be the end footer, got %+v", end)
	}
	if !end.Aborted || !strings.Contains(end.AbortReason, "context canceled") {
		t.Fatalf("end must record the abort: %+v", end)
	}
	if end.Completed >= end.Cells {
		t.Fatalf("aborted run must be incomplete: %+v", end)
	}

	st, err := SummarizeJournal(evs)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Aborted || !st.Complete {
		t.Fatalf("status must mark the run aborted-but-footered: %+v", st)
	}
	if !strings.Contains(st.Text(), "aborted") {
		t.Fatalf("status text must say aborted:\n%s", st.Text())
	}

	// In-flight cells wind down after cancellation; give them a
	// moment, then insist the worker pool is gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak after cancellation: %d -> %d\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}
}

// The mid-run-error satellite: a cell that fails must be journaled
// with its error, the run itself completing normally.
func TestJournalRecordsCellError(t *testing.T) {
	plan, err := NewPlan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	// An unknown benchmark slips past spec validation only via
	// hand-built cells; it fails inside the worker, mid-run.
	plan.Cells[0].Opts.Bench = "nosuch"

	var buf bytes.Buffer
	s := &Scheduler{Workers: 2, journal: NewJournalWriter(&buf, plan, "")}
	if _, _, err := s.Run(context.Background(), plan.Cells); err != nil || s.journal.Err() != nil {
		t.Fatal(err, s.journal.Err())
	}

	evs := readJournalStrict(t, buf.Bytes())
	var failed int
	for _, e := range evs {
		if e.Ev == EvCellDone && e.Err != "" {
			failed++
			if e.WallMS <= 0 {
				t.Fatalf("failed cell still occupied a worker; wall must be recorded: %+v", e)
			}
			if e.Insts != 0 || e.InstsPerSec != 0 {
				t.Fatalf("failed cell must not claim simulated instructions: %+v", e)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("failed cells in journal: %d, want 1", failed)
	}

	st, err := SummarizeJournal(evs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 1 || len(st.Failures) != 1 {
		t.Fatalf("status errors: %+v", st)
	}
	if !strings.Contains(st.Text(), "failures:") {
		t.Fatalf("status text must list failures:\n%s", st.Text())
	}
}

func TestJournalRejectsGarbage(t *testing.T) {
	if _, err := SummarizeJournal(nil); err == nil {
		t.Fatal("empty journal must be rejected")
	}
	// Garbage in the middle of the file is real corruption — a valid
	// line after it proves the writer kept going, so this is not the
	// benign torn tail a killed run leaves.
	_, err := ReadJournal(strings.NewReader("{\"ev\":\"start\"}\nnot json\n{\"ev\":\"end\"}\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("mid-file garbage must fail hard with its line number, got %v", err)
	}
	var torn *telemetry.TornTailError
	if errors.As(err, &torn) {
		t.Fatalf("mid-file garbage must not be classified as a torn tail: %v", err)
	}
}

// A journal whose final line is torn (the process died mid-write)
// yields the intact prefix plus a typed *TornTailError, so resume and
// status can use what survived.
func TestJournalTornTailIsTyped(t *testing.T) {
	evs, err := ReadJournal(strings.NewReader("{\"ev\":\"start\",\"campaign\":\"t\"}\n{\"ev\":\"cell_done\",\"key\":\"abc\"}\n{\"ev\":\"cell_do"))
	var torn *telemetry.TornTailError
	if !errors.As(err, &torn) {
		t.Fatalf("torn final line must return *TornTailError, got %v", err)
	}
	if torn.Line != 3 {
		t.Fatalf("torn line number: %d", torn.Line)
	}
	if len(evs) != 2 || evs[0].Ev != EvStart || evs[1].Key != "abc" {
		t.Fatalf("intact prefix must be returned alongside the error: %+v", evs)
	}
	// The prefix is still summarizable — status on a killed run.
	st, err := SummarizeJournal(evs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Complete {
		t.Fatal("a torn journal has no end event")
	}
	if st.Completed != 1 {
		t.Fatalf("prefix cells must count: %+v", st)
	}
}

// SummarizeJournal on a resumed journal: the latest run's events are
// folded afresh, but resume markers accumulate across runs. The footer
// is not consulted: its counters come from the same events.
func TestSummarizeJournalResumedRun(t *testing.T) {
	lines := strings.Join([]string{
		`{"ev":"start","campaign":"t","cells":4,"plan":"p1"}`,
		`{"ev":"cell_done","key":"a","err":"boom","err_kind":"panic"}`,
		`{"ev":"resume","campaign":"t","recovered":1,"remaining":3}`,
		`{"ev":"start","campaign":"t","cells":4,"plan":"p1"}`,
		`{"ev":"cell_done","key":"b","source":"sim"}`,
		`{"ev":"cell_done","key":"c","source":"cache"}`,
		`{"ev":"cell_done","key":"d","source":"sim","warm":true}`,
		`{"ev":"cell_done","key":"a","err":"boom","err_kind":"panic","source":"journal"}`,
		`{"ev":"end","completed":4,"errors":1,"failed_kinds":{"panic":1},"wall_s":0.5}`,
	}, "\n") + "\n"
	evs, err := ReadJournal(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	st, err := SummarizeJournal(evs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Resumes != 1 {
		t.Fatalf("resumes: %d", st.Resumes)
	}
	want := SchedulerStats{Total: 4, Completed: 4, CacheHits: 1, Simulated: 2, Errors: 1,
		CheckpointHits: 1, FailedKinds: map[string]int{"panic": 1}}
	if !st.Complete || !reflect.DeepEqual(st.SchedulerStats, want) {
		t.Fatalf("latest run must fold to %+v: %+v", want, st)
	}
	if !strings.Contains(st.Text(), "resumes   1") {
		t.Fatalf("status text must surface resumes:\n%s", st.Text())
	}
}

// A journal writer whose sink fails sticks the first error and keeps
// the campaign alive — the injected journal.write.error path.
func TestJournalWriterInjectedFailureSticks(t *testing.T) {
	var buf bytes.Buffer
	plan, err := NewPlan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	jw := NewJournalWriter(&buf, plan, "")
	jw.Faults = fault.New(1).Enable(fault.JournalWrite, 1).Limit(fault.JournalWrite, 1)
	jw.apply(Event{Ev: EvStart, Cells: len(plan.Cells), Workers: 1})
	err = jw.Err()
	var fe *fault.Error
	if !errors.As(err, &fe) || fe.Point != fault.JournalWrite {
		t.Fatalf("injected write failure must stick as a typed error, got %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("failed write must emit nothing, got %q", buf.String())
	}
	// Later events are dropped, not crashed on.
	jw.apply(Event{Ev: EvCellDone, Cell: plan.Cells[0]})
	if jw.Err() != err && !errors.As(jw.Err(), &fe) {
		t.Fatalf("first error must stick: %v", jw.Err())
	}
}

// Per-cell interval artifacts: every freshly simulated cell gets a
// <fingerprint>.json series; cached cells get none.
func TestExecuteWritesIntervalArtifacts(t *testing.T) {
	dir := t.TempDir()
	ivDir := filepath.Join(dir, "iv")
	sum, err := Execute(context.Background(), tinySpec(), RunConfig{
		CacheDir:    filepath.Join(dir, "cache"),
		Interval:    500,
		IntervalDir: ivDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(ivDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != sum.Sched.Simulated {
		t.Fatalf("artifacts: %d, want one per simulated cell (%d)", len(entries), sum.Sched.Simulated)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(ivDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var ivs []map[string]any
		if err := json.Unmarshal(data, &ivs); err != nil || len(ivs) == 0 {
			t.Fatalf("%s: bad series (%v, %d intervals)", e.Name(), err, len(ivs))
		}
	}

	// A fully cached rerun adds no artifacts (nothing was simulated)
	// and the disk cache counts the hits.
	cache, err := OpenDiskCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	sched := &Scheduler{Cache: cache}
	plan, err := NewPlan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, stats, err := sched.Run(context.Background(), plan.Cells); err != nil || stats.CacheHits != 8 {
		t.Fatalf("rerun: %v %+v", err, stats)
	}
	c := cache.Counters()
	if c.Hits != 8 || c.Misses != 0 || c.BytesRead == 0 {
		t.Fatalf("cache counters: %+v", c)
	}
	again, err := os.ReadDir(ivDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(entries) {
		t.Fatalf("cached rerun must not add artifacts: %d -> %d", len(entries), len(again))
	}
}
