package campaign

import (
	"fmt"
	"time"
)

// Campaign lifecycle event kinds, which are also the journal's "ev"
// values. A run emits one "start", then interleaved
// "cell_start"/"cell_done" (with "retry", "degraded", "stall" and
// "prefix" woven in as they happen), then one "end". A resumed
// campaign appends a "resume" marker and a fresh start/…/end sequence
// to the same journal. A journal whose last run has no "end" event
// records a campaign that was killed hard (OOM, SIGKILL, power loss)
// mid-run.
const (
	EvStart     = "start"
	EvCellStart = "cell_start"
	EvCellDone  = "cell_done"
	EvRetry     = "retry"
	EvDegraded  = "degraded"
	EvStall     = "stall"
	EvPrefix    = "prefix"
	EvResume    = "resume"
	EvEnd       = "end"
)

// Event is one step of a campaign run's lifecycle. The scheduler emits
// each step once; SchedulerStats, LiveStats, the stall watch and the
// journal are folds over that one stream, and SummarizeJournal replays
// a journal's lines through the same fold, so every view counts the
// same run the same way.
type Event struct {
	Ev string
	// Cells and Workers size the run (start).
	Cells, Workers int
	// Cell is the cell a cell_start, cell_done or retry concerns.
	Cell Cell
	// Key is the fingerprint a degraded or prefix event concerns: a
	// cell's, or a warm-up prefix's for a prefix run.
	Key string
	// Op names what a retry retried ("cell", "cache.put") or a
	// degradation lost ("cache.put", "cache.corrupt", …). On a prefix
	// event it is "run" (a warm-up prefix simulated and captured) or
	// "miss" (a warm-eligible attempt fell back to a cold run) or
	// "rung" (a cell's measurement started from the budget ladder's
	// mid-run checkpoint instead of the warm-up boundary).
	Op string
	// Err is a cell_done's failure, the cause of a retry or
	// degradation, or the reason an end aborted.
	Err error

	// cell_done: where the result came from ("sim", "cache" or
	// "journal"), the worker wall time, the part of it spent capturing
	// the cell's warm-up prefix for its group, the instructions
	// simulated, the retries consumed, and whether the measurement
	// phase ran from a warm checkpoint. A prefix run event carries its
	// capture's wall time and the warm-up instructions it simulated in
	// Wall and Insts.
	Source   string
	Wall     time.Duration
	Capture  time.Duration
	Insts    uint64
	Attempts int
	Warm     bool

	// retry: the 1-based retry number and its backoff.
	Attempt int
	Delay   time.Duration

	// Stall is the watchdog's report (stall).
	Stall StallReport
}

// SchedulerStats counts what a campaign execution actually did: the
// fold of the run's events (see apply).
// Completed = CacheHits + Simulated + Errors; cells neither started
// nor finished before cancellation are the remainder of Total.
type SchedulerStats struct {
	Total     int `json:"total"`
	Completed int `json:"completed"`
	CacheHits int `json:"cache_hits"`
	Simulated int `json:"simulated"`
	Errors    int `json:"errors"`
	// Retries counts transient-failure retry attempts (cells retried
	// after a timeout, cache writes retried after an I/O error).
	Retries int `json:"retries,omitempty"`
	// Degraded counts non-fatal infrastructure failures the campaign
	// survived (unpersisted cache entries, quarantined corrupt cells).
	Degraded int `json:"degraded,omitempty"`
	// Stalls counts stall-watchdog flags (one per quiet episode).
	Stalls int `json:"stalls,omitempty"`
	// PrefixRuns counts warm-up prefixes simulated for checkpoint
	// capture; CheckpointHits counts cells whose measurement phase ran
	// from a restored warm snapshot (each is a skip+warm-up simulation
	// not paid), CheckpointMisses warm-eligible attempts that fell
	// back to a cold run. RungRestores counts the hits that restored a
	// rung, the mid-run checkpoint a smaller budget of the group left
	// on the worker. All zero when warm checkpointing is off.
	PrefixRuns       int `json:"prefix_runs"`
	CheckpointHits   int `json:"checkpoint_hits"`
	CheckpointMisses int `json:"checkpoint_misses"`
	RungRestores     int `json:"rung_restores,omitempty"`
	// FailedKinds breaks Errors down by taxonomy kind
	// (panic/timeout/model/io).
	FailedKinds map[string]int `json:"failed_kinds,omitempty"`
}

// apply folds one event into the counters. It is the only code that
// counts a campaign's cells, retries, degradations, stalls and warm
// checkpoints; every view runs it over the same events. A start event
// resets the fold, so a resumed journal folds to its latest run.
func (s *SchedulerStats) apply(e Event) {
	switch e.Ev {
	case EvStart:
		*s = SchedulerStats{Total: e.Cells}
	case EvCellDone:
		s.Completed++
		switch {
		case e.Err != nil:
			s.Errors++
			kind := Classify(e.Err)
			if kind == "" {
				kind = KindModel
			}
			if s.FailedKinds == nil {
				s.FailedKinds = map[string]int{}
			}
			s.FailedKinds[string(kind)]++
		case e.Source == "cache":
			s.CacheHits++
		default:
			s.Simulated++
		}
		if e.Warm {
			s.CheckpointHits++
		}
	case EvRetry:
		s.Retries++
	case EvDegraded:
		s.Degraded++
	case EvStall:
		s.Stalls++
	case EvPrefix:
		switch e.Op {
		case "miss":
			s.CheckpointMisses++
		case "rung":
			s.RungRestores++
		default:
			s.PrefixRuns++
		}
	}
}

// warmText renders the warm-checkpoint counters for the report and
// status texts, or "" when warm checkpointing did nothing.
func (s SchedulerStats) warmText() string {
	if s.PrefixRuns == 0 && s.CheckpointHits == 0 && s.CheckpointMisses == 0 {
		return ""
	}
	return fmt.Sprintf("prefix-runs=%d checkpoint-hits=%d checkpoint-misses=%d rung-restores=%d",
		s.PrefixRuns, s.CheckpointHits, s.CheckpointMisses, s.RungRestores)
}

// progress renders a cell_done event for OnProgress, numbered by the
// fold st it was just applied to.
func (e Event) progress(st SchedulerStats) Progress {
	return Progress{
		Done:      st.Completed,
		Total:     st.Total,
		Cell:      e.Cell,
		FromCache: e.Source == "cache" && e.Err == nil,
		Err:       e.Err,
		Source:    e.Source,
		Wall:      e.Wall,
		Insts:     e.Insts,
		Attempts:  e.Attempts,
		Warm:      e.Warm,
	}
}
