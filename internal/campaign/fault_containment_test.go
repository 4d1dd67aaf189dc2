package campaign

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"microlib/internal/fault"
)

// dupKey returns a fingerprint that appears on two plan cells (the
// Base column repeated across a paramsets axis), with the plan.
func dupPlan(t *testing.T) (*Plan, string) {
	t.Helper()
	spec := tinySpec()
	spec.Seeds = []uint64{1}
	spec.ParamSets = []ParamSetSpec{
		{Name: "pub"},
		{Name: "q1", Params: map[string]map[string]int{"TP": {"queue": 1}}},
	}
	plan, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range plan.Cells {
		if seen[c.Key] {
			return plan, c.Key
		}
		seen[c.Key] = true
	}
	t.Fatal("plan has no duplicated fingerprint")
	return nil, ""
}

// Panic isolation: an injected worker panic costs one cell, not the
// campaign; the failure is typed with a stack and the rest completes.
func TestSchedulerRecoversCellPanic(t *testing.T) {
	plan, err := NewPlan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.Cells[0].Key
	s := &Scheduler{
		Workers: 2,
		Faults:  fault.New(1).EnableKeys(fault.CellPanic, 1, victim),
	}
	results, stats, err := s.Run(context.Background(), plan.Cells)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 8 || stats.Errors != 1 || stats.Simulated != 7 {
		t.Fatalf("one panic must cost one cell: %+v", stats)
	}
	if stats.FailedKinds[string(KindPanic)] != 1 {
		t.Fatalf("failure must be classified panic: %+v", stats.FailedKinds)
	}
	res := results[victim]
	if res.Err == "" || res.ErrKind != string(KindPanic) {
		t.Fatalf("victim result: %+v", res)
	}
	if !strings.Contains(res.Err, "panic") {
		t.Fatalf("panic message lost: %q", res.Err)
	}
}

// The panic's stack must reach the journal (that is what makes a
// watchdog panic in a 1000-cell sweep debuggable afterwards).
func TestJournalCarriesPanicStack(t *testing.T) {
	plan, err := NewPlan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.Cells[0].Key
	var buf bytes.Buffer
	s := &Scheduler{
		Workers: 2,
		Faults:  fault.New(1).EnableKeys(fault.CellPanic, 1, victim),
		journal: NewJournalWriter(&buf, plan, ""),
	}
	if _, _, err := s.Run(context.Background(), plan.Cells); err != nil || s.journal.Err() != nil {
		t.Fatal(err, s.journal.Err())
	}
	evs := readJournalStrict(t, buf.Bytes())
	var found bool
	for _, e := range evs {
		if e.Ev == EvCellDone && e.Err != "" {
			found = true
			if e.ErrKind != string(KindPanic) {
				t.Fatalf("journaled failure must be typed: %+v", e)
			}
			if !strings.Contains(e.Stack, "goroutine") {
				t.Fatalf("journaled panic must carry its stack, got %q", e.Stack)
			}
		}
	}
	if !found {
		t.Fatal("no failed cell_done in journal")
	}
	end := evs[len(evs)-1]
	if end.Ev != EvEnd || end.FailedKinds[string(KindPanic)] != 1 {
		t.Fatalf("footer must carry per-kind counts: %+v", end)
	}
}

// Duplicate-cell handling when the first copy panics: the recorded
// deterministic failure is shared, not resimulated, and both copies
// count as failures.
func TestSchedulerDuplicateSharesPanicFailure(t *testing.T) {
	plan, victim := dupPlan(t)
	s := &Scheduler{
		Workers: 4,
		Faults:  fault.New(1).EnableKeys(fault.CellPanic, 1, victim),
	}
	var progressErrs int
	s.OnProgress = func(p Progress) {
		if p.Cell.Key == victim && p.Err == nil {
			t.Errorf("copy of panicked cell reported success: %+v", p)
		}
		if p.Err != nil {
			progressErrs++
			var ce *CellError
			if !errors.As(p.Err, &ce) || ce.Kind != KindPanic {
				t.Errorf("shared failure must stay typed: %v", p.Err)
			}
		}
	}
	_, stats, err := s.Run(context.Background(), plan.Cells)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 2 || progressErrs != 2 {
		t.Fatalf("both copies must report the shared failure: stats=%+v progress=%d", stats, progressErrs)
	}
	if stats.FailedKinds[string(KindPanic)] != 2 {
		t.Fatalf("failed kinds: %+v", stats.FailedKinds)
	}
	if stats.Completed != len(plan.Cells) {
		t.Fatalf("campaign must still complete: %+v", stats)
	}
}

// Per-cell deadline: a stuck cell is cut off, typed timeout, and the
// campaign completes. With retries enabled and the stall persisting,
// the retry is consumed and the cell still fails.
func TestSchedulerCellTimeout(t *testing.T) {
	plan, err := NewPlan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.Cells[1].Key
	inj := fault.New(1).EnableKeys(fault.CellSlow, 1, victim)
	inj.SlowFor = 10 * time.Second
	var journal bytes.Buffer
	s := &Scheduler{
		Workers: 2,
		// Generous: healthy 2000-inst cells must never trip it, even
		// under the race detector's slowdown.
		CellTimeout: 500 * time.Millisecond,
		Retry:       RetryPolicy{Max: 1, BaseDelay: time.Millisecond},
		Faults:      inj,
		journal:     NewJournalWriter(&journal, plan, ""),
	}
	results, stats, err := s.Run(context.Background(), plan.Cells)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 1 || stats.FailedKinds[string(KindTimeout)] != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	var retries int
	for _, e := range readJournalStrict(t, journal.Bytes()) {
		if e.Ev == EvRetry {
			retries++
		}
	}
	if stats.Retries != 1 || retries != 1 {
		t.Fatalf("timeout is transient and must consume its retry: %d/%d", stats.Retries, retries)
	}
	res := results[victim]
	if res.ErrKind != string(KindTimeout) || !strings.Contains(res.Err, "deadline") {
		t.Fatalf("victim result: %+v", res)
	}
	if stats.Simulated != 7 || stats.Completed != 8 {
		t.Fatalf("other cells must complete: %+v", stats)
	}
}

// A transient failure that stops recurring succeeds on retry: the
// slow fault is limited to one occurrence, so attempt two finishes.
func TestSchedulerRetryRecoversTransient(t *testing.T) {
	plan, err := NewPlan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.Cells[2].Key
	inj := fault.New(1).EnableKeys(fault.CellSlow, 1, victim).Limit(fault.CellSlow, 1)
	inj.SlowFor = 10 * time.Second
	s := &Scheduler{
		Workers:     2,
		CellTimeout: 500 * time.Millisecond,
		Retry:       RetryPolicy{Max: 2, BaseDelay: time.Millisecond},
		Faults:      inj,
	}
	var attempts int
	s.OnProgress = func(p Progress) {
		if p.Cell.Key == victim {
			attempts = p.Attempts
		}
	}
	results, stats, err := s.Run(context.Background(), plan.Cells)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 || stats.Simulated != 8 {
		t.Fatalf("retried cell must succeed: %+v", stats)
	}
	if stats.Retries != 1 || attempts != 1 {
		t.Fatalf("exactly one retry expected: stats=%d progress=%d", stats.Retries, attempts)
	}
	if res := results[victim]; res.Err != "" || res.IPC <= 0 {
		t.Fatalf("victim result after retry: %+v", res)
	}
}

// Cancellation racing a retrying cell: the backoff select must yield
// to ctx, the cell stays unrecorded (the resumed run retries fresh),
// and no workers leak.
func TestSchedulerCancellationDuringRetryBackoff(t *testing.T) {
	before := runtime.NumGoroutine()
	plan, err := NewPlan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.Cells[0].Key
	inj := fault.New(1).EnableKeys(fault.CellSlow, 1, victim)
	inj.SlowFor = 10 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &Scheduler{
		Workers:     2,
		CellTimeout: 300 * time.Millisecond,
		// A backoff long enough that cancel lands inside it.
		Retry: RetryPolicy{Max: 5, BaseDelay: 10 * time.Second},
		// The journal's retry line for the victim is written just
		// before its backoff sleep.
		journal: NewJournalWriter(onJournalLine(t, func(e JournalEvent) {
			if e.Ev == EvRetry && e.Key == victim {
				cancel()
			}
		}), plan, ""),
	}
	s.Faults = inj
	results, _, err := s.Run(ctx, plan.Cells)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if _, ok := results[victim]; ok {
		t.Fatal("cell canceled mid-retry must stay unrecorded for resume")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d -> %d\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// Cache Put failures degrade: counted, reported, journaled — and the
// in-memory result is still delivered.
func TestSchedulerCachePutDegrades(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.Faults = fault.New(1).Enable(fault.CachePutError, 1)
	plan, err := NewPlan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	s := &Scheduler{
		Workers: 2,
		Cache:   cache,
		Retry:   RetryPolicy{Max: 1, BaseDelay: time.Millisecond},
		journal: NewJournalWriter(&journal, plan, ""),
	}
	results, stats, err := s.Run(context.Background(), plan.Cells)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Errors != 0 || stats.Simulated != 8 {
		t.Fatalf("put failures must not fail cells: %+v", stats)
	}
	var degraded []JournalEvent
	for _, e := range readJournalStrict(t, journal.Bytes()) {
		if e.Ev == EvDegraded {
			degraded = append(degraded, e)
		}
	}
	if stats.Degraded != 8 || len(degraded) != 8 {
		t.Fatalf("every dropped put must be counted: stats=%d journal=%d", stats.Degraded, len(degraded))
	}
	if stats.Retries != 8 {
		t.Fatalf("every put must be retried once: %+v", stats)
	}
	for _, d := range degraded {
		if d.Op != "cache.put" || d.Key == "" {
			t.Fatalf("degradation payload: %+v", d)
		}
		// The injected error itself reaches the journal, unwrapped.
		if want := (&fault.Error{Point: fault.CachePutError, Key: d.Key}).Error(); d.Err != want {
			t.Fatalf("degradation error %q, want the injected %q", d.Err, want)
		}
	}
	for _, c := range plan.Cells {
		if res := results[c.Key]; res.Err != "" || res.IPC <= 0 {
			t.Fatalf("result lost with the failed put: %+v", res)
		}
	}
	keys, err := cache.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("failed puts must persist nothing, found %d entries", len(keys))
	}
}

// The stall watchdog: flags once per quiet episode, re-arms on
// progress, stays silent after completion.
func TestStallWatchCheck(t *testing.T) {
	w := &stallWatch{factor: 8, min: 10 * time.Millisecond, last: time.Now().Add(-time.Second)}
	rep, ok := w.check(1, 4)
	if !ok {
		t.Fatal("idle 1s against a 10ms floor must flag")
	}
	if rep.Idle < time.Second || rep.Threshold != 10*time.Millisecond || rep.Done != 1 || rep.Total != 4 {
		t.Fatalf("report: %+v", rep)
	}
	if _, ok := w.check(1, 4); ok {
		t.Fatal("a stall episode must be flagged once, not every tick")
	}
	w.apply(Event{Ev: EvCellDone, Wall: 5 * time.Millisecond})
	w.last = time.Now().Add(-time.Second)
	if _, ok := w.check(2, 4); !ok {
		t.Fatal("progress must re-arm the watchdog")
	}
	// Median-scaled threshold: with 100ms cells on record, factor 8
	// and a 10ms floor, the threshold is 800ms.
	w2 := &stallWatch{factor: 8, min: 10 * time.Millisecond, last: time.Now().Add(-500 * time.Millisecond)}
	w2.walls = []time.Duration{100 * time.Millisecond, 100 * time.Millisecond}
	if _, ok := w2.check(2, 4); ok {
		t.Fatal("500ms idle under an 800ms median-scaled threshold must not flag")
	}
	w2.last = time.Now().Add(-2 * time.Second)
	if rep, ok := w2.check(2, 4); !ok || rep.Median != 100*time.Millisecond {
		t.Fatalf("2s idle must flag with the median recorded: %+v ok=%v", rep, ok)
	}
	// A finished campaign never stalls.
	w3 := &stallWatch{factor: 8, min: time.Millisecond, last: time.Now().Add(-time.Hour)}
	if _, ok := w3.check(2, 2); ok {
		t.Fatal("completed campaign must not flag")
	}
}

// The acceptance e2e: a campaign containing a panicking cell and a
// deadline-exceeding cell completes all other cells, writes a
// well-formed journal with typed failure events and a footer, and the
// summary carries per-kind counts.
func TestExecuteFaultContainmentEndToEnd(t *testing.T) {
	plan, err := NewPlan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	panicKey, slowKey := plan.Cells[0].Key, plan.Cells[3].Key
	inj := fault.New(1).
		EnableKeys(fault.CellPanic, 1, panicKey).
		EnableKeys(fault.CellSlow, 1, slowKey)
	inj.SlowFor = 10 * time.Second

	var buf bytes.Buffer
	dir := filepath.Join(t.TempDir(), "cache")
	sum, err := Execute(context.Background(), tinySpec(), RunConfig{
		Workers:     2,
		CacheDir:    dir,
		Journal:     &buf,
		CellTimeout: 500 * time.Millisecond,
		Retry:       &RetryPolicy{Max: 1, BaseDelay: time.Millisecond},
		Faults:      inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sched.Completed != 8 || sum.Sched.Errors != 2 || sum.Sched.Simulated != 6 {
		t.Fatalf("both faults cost one cell each: %+v", sum.Sched)
	}
	if sum.Sched.FailedKinds[string(KindPanic)] != 1 || sum.Sched.FailedKinds[string(KindTimeout)] != 1 {
		t.Fatalf("per-kind counts: %+v", sum.Sched.FailedKinds)
	}

	evs := readJournalStrict(t, buf.Bytes())
	end := evs[len(evs)-1]
	if end.Ev != EvEnd || end.Errors != 2 || end.Retries != 1 {
		t.Fatalf("footer: %+v", end)
	}
	kinds := map[string]int{}
	var retryEvents int
	for _, e := range evs {
		switch e.Ev {
		case EvCellDone:
			if e.Err != "" {
				kinds[e.ErrKind]++
			}
		case EvRetry:
			retryEvents++
			if e.Key != slowKey || e.ErrKind != string(KindTimeout) || e.Attempt != 1 {
				t.Fatalf("retry event: %+v", e)
			}
		}
	}
	if kinds[string(KindPanic)] != 1 || kinds[string(KindTimeout)] != 1 || retryEvents != 1 {
		t.Fatalf("journaled kinds %v, retries %d", kinds, retryEvents)
	}

	st, err := SummarizeJournal(evs)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.Errors != 2 || st.FailedKinds[string(KindPanic)] != 1 || st.FailedKinds[string(KindTimeout)] != 1 || st.Retries != 1 {
		t.Fatalf("status: %+v", st)
	}
	text := st.Text()
	for _, want := range []string{"1 panic", "1 timeout", "failures:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("status text missing %q:\n%s", want, text)
		}
	}

	// The good cells made it to the cache; the failed two did not.
	cache, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := cache.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Fatalf("cache: %d entries, want the 6 successes", len(keys))
	}
}
