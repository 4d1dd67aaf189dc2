package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"microlib/internal/fault"
)

// runToJournal runs a tinySpec campaign writing its journal to a real
// file, canceling after `stopAfter` cells when stopAfter > 0.
func runToJournal(t *testing.T, dir string, stopAfter int) (journalPath, cacheDir string, sum *Summary, err error) {
	t.Helper()
	journalPath = filepath.Join(dir, "run.jsonl")
	cacheDir = filepath.Join(dir, "cache")
	jf, ferr := os.Create(journalPath)
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer jf.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := RunConfig{Workers: 1, CacheDir: cacheDir, Journal: jf}
	if stopAfter > 0 {
		n := 0
		cfg.OnProgress = func(Progress) {
			n++
			if n >= stopAfter {
				cancel()
			}
		}
	}
	sum, err = Execute(ctx, tinySpec(), cfg)
	return journalPath, cacheDir, sum, err
}

// The headline crash-safety property: interrupt a campaign partway,
// resume from the journal, and the final aggregate is bit-identical
// to an uninterrupted run — with only the remainder simulated.
func TestResumeMatchesUninterruptedRun(t *testing.T) {
	// Reference: the same spec run to completion.
	_, _, want, err := runToJournal(t, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	journalPath, _, _, err := runToJournal(t, dir, 3)
	if err == nil {
		t.Fatal("interrupted run must report cancellation")
	}

	sum, info, err := Resume(context.Background(), journalPath, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn {
		t.Fatal("cleanly canceled journal must not read as torn")
	}
	if info.Recovered < 3 || info.Remaining == 0 || info.Recovered+info.Remaining != 8 {
		t.Fatalf("reconstruction: %+v", info)
	}
	if sum.Sched.Simulated != info.Remaining || sum.Sched.CacheHits != info.Recovered {
		t.Fatalf("resume must only simulate the remainder: %+v vs %+v", sum.Sched, info)
	}
	// Scheduler stats differ by construction (cache hits vs
	// simulations); the science must not.
	if !reflect.DeepEqual(sum.Scenarios, want.Scenarios) {
		t.Fatalf("resumed aggregate diverged:\n got %+v\nwant %+v", sum.Scenarios, want.Scenarios)
	}

	// The journal now holds both runs plus a resume marker, and
	// status reflects the completed latest run.
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	evs := readJournalStrict(t, data)
	var resumes, starts int
	for _, e := range evs {
		switch e.Ev {
		case EvResume:
			resumes++
			if e.Recovered != info.Recovered || e.Remaining != info.Remaining {
				t.Fatalf("resume marker: %+v vs %+v", e, info)
			}
		case EvStart:
			starts++
		}
	}
	if resumes != 1 || starts != 2 {
		t.Fatalf("journal shape: %d resumes, %d starts", resumes, starts)
	}
	st, err := SummarizeJournal(evs)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.Resumes != 1 || st.Completed != 8 || st.Errors != 0 {
		t.Fatalf("status after resume: %+v", st)
	}
}

// A torn final line — the debris SIGKILL leaves — is tolerated: the
// intact prefix drives the resume and the tear is reported.
func TestResumeToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	journalPath, _, _, err := runToJournal(t, dir, 3)
	if err == nil {
		t.Fatal("interrupted run must report cancellation")
	}
	f, err := os.OpenFile(journalPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ev":"cell_done","key":"cafef00d`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sum, info, err := Resume(context.Background(), journalPath, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn {
		t.Fatal("the torn tail must be reported")
	}
	if sum.Sched.Completed != 8 || sum.Sched.Errors != 0 {
		t.Fatalf("resumed run: %+v", sum.Sched)
	}
	// The resumed journal is whole again: the torn fragment is
	// followed by well-formed lines, so a *second* read fails hard at
	// that line — which status tolerates via its torn-line count but
	// strict readers rightly reject. Verify line-by-line validity of
	// everything the resumed run appended.
	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	bad := 0
	for _, ln := range lines {
		if !json.Valid(ln) {
			bad++
		}
	}
	if bad != 1 {
		t.Fatalf("exactly the torn fragment must be invalid, found %d bad lines", bad)
	}
}

// Deterministic failures are replayed from the journal: the doomed
// cell is not resimulated, its failure stays typed, and duplicate
// bookkeeping matches the original.
func TestResumeReplaysDeterministicFailures(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "run.jsonl")
	cacheDir := filepath.Join(dir, "cache")
	jf, err := os.Create(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.Cells[0].Key
	sum, err := Execute(context.Background(), tinySpec(), RunConfig{
		Workers:  2,
		CacheDir: cacheDir,
		Journal:  jf,
		Faults:   fault.New(1).EnableKeys(fault.CellPanic, 1, victim),
	})
	jf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sched.Errors != 1 {
		t.Fatalf("setup run: %+v", sum.Sched)
	}

	sum2, info, err := Resume(context.Background(), journalPath, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if info.KnownFailures != 1 || info.Recovered != 8 || info.Remaining != 0 {
		t.Fatalf("reconstruction: %+v", info)
	}
	if sum2.Sched.Simulated != 0 {
		t.Fatalf("nothing should be resimulated: %+v", sum2.Sched)
	}
	if sum2.Sched.Errors != 1 || sum2.Sched.FailedKinds[string(KindPanic)] != 1 {
		t.Fatalf("replayed failure must stay typed: %+v", sum2.Sched)
	}
}

// Guard rails: journals without a start/spec, and plans whose
// fingerprint changed since the journal was written, are rejected
// with actionable messages.
func TestResumeRejectsUnusableJournals(t *testing.T) {
	dir := t.TempDir()

	noStart := filepath.Join(dir, "nostart.jsonl")
	os.WriteFile(noStart, []byte(`{"ev":"cell_done","key":"a"}`+"\n"), 0o644)
	if _, _, err := Resume(context.Background(), noStart, RunConfig{}); err == nil || !contains(err, "no start event") {
		t.Fatalf("journal without start: %v", err)
	}

	noSpec := filepath.Join(dir, "nospec.jsonl")
	os.WriteFile(noSpec, []byte(`{"ev":"start","campaign":"t"}`+"\n"), 0o644)
	if _, _, err := Resume(context.Background(), noSpec, RunConfig{}); err == nil || !contains(err, "embeds no spec") {
		t.Fatalf("journal without spec: %v", err)
	}

	spec := tinySpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	badFP := filepath.Join(dir, "badfp.jsonl")
	line, _ := json.Marshal(JournalEvent{Ev: EvStart, Spec: raw, Plan: "0123456789abcdef", CacheDir: dir})
	os.WriteFile(badFP, append(line, '\n'), 0o644)
	if _, _, err := Resume(context.Background(), badFP, RunConfig{}); err == nil || !contains(err, "fingerprint changed") {
		t.Fatalf("fingerprint mismatch: %v", err)
	}

	if _, _, err := Resume(context.Background(), filepath.Join(dir, "missing.jsonl"), RunConfig{}); err == nil {
		t.Fatal("missing journal must error")
	}
}

func contains(err error, sub string) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte(sub))
}

// Spec-level robustness knobs round-trip through the journal: a
// resumed run inherits cell_timeout and retry from the embedded spec.
func TestResumeInheritsSpecRobustnessKnobs(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "run.jsonl")
	cacheDir := filepath.Join(dir, "cache")
	spec := tinySpec()
	spec.CellTimeout = Duration(250 * time.Millisecond)
	spec.Retry = &RetrySpec{Max: 3}
	jf, err := os.Create(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel immediately: we only want the start event
	if _, err := Execute(ctx, spec, RunConfig{Workers: 1, CacheDir: cacheDir, Journal: jf}); err == nil {
		t.Fatal("canceled run must report it")
	}
	jf.Close()

	sum, info, err := Resume(context.Background(), journalPath, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if info.Remaining == 0 {
		t.Fatalf("canceled-at-birth run must leave work: %+v", info)
	}
	if sum.Sched.Completed != 8 || sum.Sched.Errors != 0 {
		t.Fatalf("resumed run: %+v", sum.Sched)
	}
	// The embedded spec carried the knobs through the round trip.
	evs := readJournalStrict(t, mustRead(t, journalPath))
	var lastStart *JournalEvent
	for i := range evs {
		if evs[i].Ev == EvStart {
			lastStart = &evs[i]
		}
	}
	var embedded Spec
	if err := json.Unmarshal(lastStart.Spec, &embedded); err != nil {
		t.Fatal(err)
	}
	if embedded.CellTimeout.Std() != 250*time.Millisecond || embedded.Retry == nil || embedded.Retry.Max != 3 {
		t.Fatalf("spec knobs lost in the journal round trip: %+v", embedded)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
