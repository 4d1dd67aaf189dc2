package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"microlib/internal/fault"
	"microlib/internal/telemetry"
)

// JournalEvent is one line of a campaign run journal. A single struct
// covers all kinds; fields not applicable to a kind are omitted from
// its JSON. Journals are JSONL so a crashed run still leaves every
// completed line readable.
type JournalEvent struct {
	Ev   string `json:"ev"`
	Time string `json:"t"` // RFC3339Nano, host clock

	// start
	Campaign string `json:"campaign,omitempty"`
	Plan     string `json:"plan,omitempty"` // plan fingerprint
	Cells    int    `json:"cells,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	CacheDir string `json:"cache_dir,omitempty"`
	// Spec is the normalized campaign spec, embedded verbatim so
	// `mlcampaign resume <journal>` can rebuild the exact plan from
	// the journal alone; BaseDir anchors its trace paths.
	Spec    json.RawMessage `json:"spec,omitempty"`
	BaseDir string          `json:"base_dir,omitempty"`

	// cell_start, cell_done and retry identify the cell; degraded and
	// prefix carry the fingerprint they concern
	Key   string `json:"key,omitempty"` // options fingerprint
	Index int    `json:"index,omitempty"`
	Bench string `json:"bench,omitempty"`
	Mech  string `json:"mech,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`

	// cell_done; a prefix run also carries its wall time, the warm-up
	// instructions it simulated and their rate. A cell that captured
	// its group's prefix counts that run's wall time in wall_ms but
	// not in insts_per_sec.
	Source      string  `json:"source,omitempty"` // "sim", "cache" or "journal"
	WallMS      float64 `json:"wall_ms,omitempty"`
	Insts       uint64  `json:"insts,omitempty"`
	InstsPerSec float64 `json:"insts_per_sec,omitempty"`
	Err         string  `json:"err,omitempty"`
	ErrKind     string  `json:"err_kind,omitempty"` // taxonomy kind when Err is set
	Stack       string  `json:"stack,omitempty"`    // recovered panic stack
	Attempts    int     `json:"attempts,omitempty"` // retries consumed
	Warm        bool    `json:"warm,omitempty"`     // measured from a warm checkpoint
	Done        int     `json:"done,omitempty"`

	// retry
	Attempt int     `json:"attempt,omitempty"` // 1-based retry number
	DelayMS float64 `json:"delay_ms,omitempty"`

	// retry, degraded and prefix
	Op string `json:"op,omitempty"` // e.g. "cache.put", "cache.corrupt"; prefix: "run", "miss" or "rung"

	// stall
	IdleMS      float64 `json:"idle_ms,omitempty"`
	ThresholdMS float64 `json:"threshold_ms,omitempty"`

	// resume
	Recovered int `json:"recovered,omitempty"` // cells reconstructed from journal+cache
	Remaining int `json:"remaining,omitempty"`

	// end
	Completed        int            `json:"completed,omitempty"`
	CacheHits        int            `json:"cache_hits,omitempty"`
	Simulated        int            `json:"simulated,omitempty"`
	Errors           int            `json:"errors,omitempty"`
	FailedKinds      map[string]int `json:"failed_kinds,omitempty"`
	Retries          int            `json:"retries,omitempty"`
	Degraded         int            `json:"degraded,omitempty"`
	Stalls           int            `json:"stalls,omitempty"`
	PrefixRuns       int            `json:"prefix_runs,omitempty"`
	CheckpointHits   int            `json:"checkpoint_hits,omitempty"`
	CheckpointMisses int            `json:"checkpoint_misses,omitempty"`
	RungRestores     int            `json:"rung_restores,omitempty"`
	Aborted          bool           `json:"aborted,omitempty"`
	AbortReason      string         `json:"abort_reason,omitempty"`
	WallS            float64        `json:"wall_s,omitempty"`
}

// JournalWriter appends one plan's run journal as JSONL: the
// scheduler it is attached to feeds it every lifecycle event, serially
// under the scheduler lock. Write errors are sticky — check Err once at
// the end instead of at every event.
type JournalWriter struct {
	w        *telemetry.JSONL
	plan     *Plan
	cacheDir string
	start    time.Time
	// stats folds the run's events for cell_done's done count and the
	// end footer.
	stats SchedulerStats

	// Faults, when non-nil, arms the journal.write.error injection
	// point: a fired write poisons the writer with a sticky injected
	// error, simulating its disk filling mid-run.
	Faults *fault.Injector
}

// NewJournalWriter wraps w for runs of plan over the cache in cacheDir;
// the caller keeps ownership of w (close the file yourself after the
// run).
func NewJournalWriter(w io.Writer, plan *Plan, cacheDir string) *JournalWriter {
	return &JournalWriter{w: telemetry.NewJSONL(w), plan: plan, cacheDir: cacheDir}
}

func stamp() string { return time.Now().Format(time.RFC3339Nano) }

func (j *JournalWriter) write(e JournalEvent) {
	if err := j.Faults.FireErr(fault.JournalWrite, e.Ev); err != nil {
		j.w.Fail(err)
	}
	j.w.Write(e)
}

// Resume records that a new run is continuing this journal:
// recovered cells were reconstructed from the journal + cache,
// remaining still need simulation. Written before the new run's
// start event.
func (j *JournalWriter) Resume(recovered, remaining int) {
	j.write(JournalEvent{
		Ev:        EvResume,
		Time:      stamp(),
		Campaign:  j.plan.Spec.Name,
		Plan:      j.plan.Fingerprint(),
		Recovered: recovered,
		Remaining: remaining,
	})
}

// apply writes one lifecycle event as its journal line. The start
// header names the campaign, the exact plan (fingerprint), its size
// and pool width — and embeds the normalized spec, so a resume can
// rebuild the plan from the journal alone. A cell_done records where
// the result came from, how long and how fast it simulated, and for a
// failure the taxonomy kind plus (for panics) the recovered stack. The
// end footer repeats the run's counters; a non-nil abort error marks
// the campaign as interrupted.
func (j *JournalWriter) apply(e Event) {
	j.stats.apply(e)
	je := JournalEvent{Ev: e.Ev, Time: stamp(), Key: e.Key, Op: e.Op}
	if c := e.Cell; c.Key != "" {
		je.Key, je.Index, je.Bench, je.Mech, je.Seed = c.Key, c.Index, c.Bench(), c.Mech(), c.Seed()
	}
	if e.Err != nil {
		je.Err = e.Err.Error()
	}
	switch e.Ev {
	case EvStart:
		j.start = time.Now()
		je.Campaign, je.Plan, je.BaseDir = j.plan.Spec.Name, j.plan.Fingerprint(), j.plan.Spec.BaseDir()
		je.Cells, je.Workers, je.CacheDir = e.Cells, e.Workers, j.cacheDir
		if spec, err := json.Marshal(j.plan.Spec); err == nil {
			je.Spec = spec
		}
	case EvCellDone:
		je.Source, je.Done, je.Attempts, je.Warm = e.Source, j.stats.Completed, e.Attempts, e.Warm
		if e.Err != nil {
			je.ErrKind = string(Classify(e.Err))
			var ce *CellError
			if errors.As(e.Err, &ce) {
				je.Stack = ce.Stack
			}
		}
		// The rate leaves out the group's prefix capture, which its
		// own prefix run line accounts for.
		je.WallMS, je.Insts, je.InstsPerSec = rate(e.Wall, e.Capture, e.Insts)
	case EvPrefix:
		je.WallMS, je.Insts, je.InstsPerSec = rate(e.Wall, 0, e.Insts)
	case EvRetry:
		je.Attempt, je.ErrKind = e.Attempt, string(Classify(e.Err))
		je.DelayMS = float64(e.Delay.Nanoseconds()) / 1e6
	case EvStall:
		je.IdleMS = float64(e.Stall.Idle.Nanoseconds()) / 1e6
		je.ThresholdMS = float64(e.Stall.Threshold.Nanoseconds()) / 1e6
		je.Done, je.Cells = e.Stall.Done, e.Stall.Total
	case EvEnd:
		st := j.stats
		je.Cells, je.Completed, je.CacheHits, je.Simulated = st.Total, st.Completed, st.CacheHits, st.Simulated
		je.Errors, je.FailedKinds, je.Retries, je.Degraded = st.Errors, st.FailedKinds, st.Retries, st.Degraded
		je.Stalls, je.PrefixRuns, je.CheckpointHits, je.CheckpointMisses = st.Stalls, st.PrefixRuns, st.CheckpointHits, st.CheckpointMisses
		je.RungRestores = st.RungRestores
		if !j.start.IsZero() {
			je.WallS = time.Since(j.start).Seconds()
		}
		if e.Err != nil {
			je.Aborted, je.AbortReason, je.Err = true, je.Err, ""
		}
	}
	j.write(je)
}

// rate renders a simulation's wall time and instructions for a
// journal line, with their rate over wall less other, the part of wall
// spent on work the instructions do not count; all zero when no wall
// time was spent.
func rate(wall, other time.Duration, insts uint64) (wallMS float64, n uint64, perSec float64) {
	if wall <= 0 {
		return 0, 0, 0
	}
	if sec := (wall - other).Seconds(); sec > 0 && insts > 0 {
		perSec = float64(insts) / sec
	}
	return float64(wall.Nanoseconds()) / 1e6, insts, perSec
}

// event decodes a journal line back into the lifecycle event it
// records, for SummarizeJournal's fold.
func (je JournalEvent) event() Event {
	e := Event{
		Ev: je.Ev, Cells: je.Cells, Workers: je.Workers,
		Cell: Cell{Key: je.Key, Index: je.Index}, Key: je.Key, Op: je.Op,
		Source: je.Source, Wall: time.Duration(je.WallMS * 1e6), Insts: je.Insts,
		Attempts: je.Attempts, Warm: je.Warm, Attempt: je.Attempt,
	}
	if je.Err != "" {
		e.Err = &CellError{Kind: ErrKind(je.ErrKind), Msg: je.Err, Stack: je.Stack}
	}
	return e
}

// Err reports the first write error, if any.
func (j *JournalWriter) Err() error { return j.w.Err() }

// ReadJournal parses a run journal back into its events. Blank lines
// are skipped; a malformed line mid-file fails with its line number,
// but a torn final line — the signature of a run killed mid-write —
// is tolerated: the intact events are returned along with a
// *telemetry.TornTailError describing the debris, so resume and
// status work on exactly the journals crashes leave behind.
func ReadJournal(r io.Reader) ([]JournalEvent, error) {
	var evs []JournalEvent
	err := telemetry.ReadJSONL(r, func(line []byte) error {
		var e JournalEvent
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		evs = append(evs, e)
		return nil
	})
	var torn *telemetry.TornTailError
	if errors.As(err, &torn) {
		return evs, torn
	}
	if err != nil {
		return nil, err
	}
	return evs, nil
}

// JournalStatus is the digest `mlcampaign status` prints: what the
// journal says happened, plus derived throughput. For a resumed
// journal (multiple start events) the per-run counters describe the
// latest run; Resumes counts the continuations.
type JournalStatus struct {
	Campaign string `json:"campaign"`
	Plan     string `json:"plan"`
	Workers  int    `json:"workers"`
	CacheDir string `json:"cache_dir,omitempty"`

	Started time.Time `json:"started"`
	Ended   time.Time `json:"ended"` // zero when the journal has no end event

	// SchedulerStats is the latest run's events folded exactly as the
	// scheduler folded them, so it equals the run's returned stats.
	SchedulerStats
	Resumes int  `json:"resumes,omitempty"`
	Torn    bool `json:"torn,omitempty"` // journal ended in a torn line
	// Insts counts the instructions simulated: the cells' and the
	// warm-up prefix runs'.
	Insts uint64 `json:"insts"`
	// SimWall is the summed per-cell simulation wall time, prefix
	// captures included (can exceed Elapsed: workers run in parallel).
	SimWall time.Duration `json:"sim_wall_ns"`

	// Complete is true when the journal carries an end event; a
	// journal without one belongs to a run that is still going or was
	// killed without winding down.
	Complete    bool    `json:"complete"`
	Aborted     bool    `json:"aborted,omitempty"`
	AbortReason string  `json:"abort_reason,omitempty"`
	WallS       float64 `json:"wall_s"`

	// Slowest holds the highest-wall-time simulated cells, slowest
	// first (at most five).
	Slowest []JournalEvent `json:"slowest,omitempty"`
	// Failures holds every cell_done event with an error.
	Failures []JournalEvent `json:"failures,omitempty"`
}

// SummarizeJournal digests a parsed journal. It tolerates truncated
// journals (no end event) — that is precisely the case status exists
// to diagnose — but rejects an empty one. A resumed journal holds
// several start/…/end runs; each start resets the per-run digest so it
// describes the latest (usually most complete) run.
func SummarizeJournal(evs []JournalEvent) (JournalStatus, error) {
	if len(evs) == 0 {
		return JournalStatus{}, fmt.Errorf("campaign: journal is empty")
	}
	var st JournalStatus
	for _, je := range evs {
		e := je.event()
		switch je.Ev {
		case EvStart:
			st = JournalStatus{Resumes: st.Resumes}
			st.Campaign = je.Campaign
			st.Plan = je.Plan
			st.Workers = je.Workers
			st.CacheDir = je.CacheDir
			st.Started, _ = time.Parse(time.RFC3339Nano, je.Time)
		case EvResume:
			st.Resumes++
		case EvPrefix:
			st.Insts += e.Insts
		case EvCellDone:
			st.Insts += e.Insts
			st.SimWall += e.Wall
			switch {
			case e.Err != nil:
				st.Failures = append(st.Failures, je)
			case e.Source == "sim":
				st.Slowest = append(st.Slowest, je)
			}
		case EvEnd:
			st.Complete = true
			st.Aborted = je.Aborted
			st.AbortReason = je.AbortReason
			st.WallS = je.WallS
			st.Ended, _ = time.Parse(time.RFC3339Nano, je.Time)
		}
		st.SchedulerStats.apply(e)
	}
	sort.SliceStable(st.Slowest, func(i, k int) bool { return st.Slowest[i].WallMS > st.Slowest[k].WallMS })
	if len(st.Slowest) > 5 {
		st.Slowest = st.Slowest[:5]
	}
	return st, nil
}

// Text renders the status digest for the terminal.
func (st JournalStatus) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %q  plan %s\n", st.Campaign, shortKey(st.Plan))
	if st.Resumes > 0 {
		fmt.Fprintf(&b, "resumes   %d (latest run shown)\n", st.Resumes)
	}
	fmt.Fprintf(&b, "cells     %d/%d done: %d simulated, %d cached, %d failed\n",
		st.Completed, st.Total, st.Simulated, st.CacheHits, st.Errors)
	if len(st.FailedKinds) > 0 {
		kinds := make([]string, 0, len(st.FailedKinds))
		for k := range st.FailedKinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, len(kinds))
		for i, k := range kinds {
			parts[i] = fmt.Sprintf("%d %s", st.FailedKinds[k], k)
		}
		fmt.Fprintf(&b, "failed    %s\n", strings.Join(parts, ", "))
	}
	if st.Completed > 0 {
		fmt.Fprintf(&b, "cache     %.1f%% hit rate\n", 100*float64(st.CacheHits)/float64(st.Completed))
	}
	if w := st.warmText(); w != "" {
		fmt.Fprintf(&b, "warm      %s\n", w)
	}
	if st.Retries > 0 || st.Degraded > 0 || st.Stalls > 0 {
		fmt.Fprintf(&b, "faults    %d retries, %d degradations, %d stall flags\n",
			st.Retries, st.Degraded, st.Stalls)
	}
	switch {
	case !st.Complete && st.Torn:
		fmt.Fprintf(&b, "state     TORN TAIL, NO END EVENT — killed mid-write; resumable\n")
	case !st.Complete:
		fmt.Fprintf(&b, "state     NO END EVENT — run still in progress or killed hard\n")
	case st.Aborted:
		fmt.Fprintf(&b, "state     aborted after %.2fs: %s\n", st.WallS, st.AbortReason)
	default:
		fmt.Fprintf(&b, "state     completed in %.2fs\n", st.WallS)
	}
	if st.WallS > 0 && st.Completed > 0 {
		fmt.Fprintf(&b, "rate      %.2f cells/s", float64(st.Completed)/st.WallS)
		if st.Insts > 0 {
			fmt.Fprintf(&b, ", %.0f insts/s aggregate", float64(st.Insts)/st.WallS)
		}
		b.WriteByte('\n')
	}
	if len(st.Slowest) > 0 {
		fmt.Fprintf(&b, "slowest cells:\n")
		for _, e := range st.Slowest {
			fmt.Fprintf(&b, "  %9.1fms  %s/%s seed=%d  (%s)\n", e.WallMS, e.Bench, e.Mech, e.Seed, shortKey(e.Key))
		}
	}
	if len(st.Failures) > 0 {
		fmt.Fprintf(&b, "failures:\n")
		for _, e := range st.Failures {
			kind := e.ErrKind
			if kind == "" {
				kind = string(KindModel)
			}
			fmt.Fprintf(&b, "  [%s] %s/%s seed=%d: %s\n", kind, e.Bench, e.Mech, e.Seed, e.Err)
		}
	}
	return b.String()
}

// shortKey abbreviates a fingerprint for display.
func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	if k == "" {
		return "?"
	}
	return k
}
