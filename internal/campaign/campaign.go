package campaign

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"microlib/internal/fault"
	"microlib/internal/telemetry"
)

// RunConfig configures Execute.
type RunConfig struct {
	// Workers bounds concurrent simulations; <1 means GOMAXPROCS.
	Workers int
	// CacheDir, when non-empty, opens a persistent result cache
	// there (created if absent).
	CacheDir string
	// CheckpointDir, when non-empty, persists warm-state prefix
	// checkpoints there (created if absent), so later campaigns
	// sharing a warm-up prefix skip its simulation entirely.
	CheckpointDir string
	// NoWarm disables warm-state checkpointing; every cell then pays
	// its own skip and warm-up simulation. Warm execution is on by
	// default because restored cells are bit-identical to cold runs —
	// it changes wall-clock time, never results.
	NoWarm bool
	// OnProgress observes every finished cell.
	OnProgress func(Progress)
	// OnStart observes every distinct cell as a worker picks it up
	// (called concurrently; see Scheduler.OnStart).
	OnStart func(Cell)
	// Journal, when non-nil, receives the JSONL run journal (header,
	// per-cell start/finish, footer). The caller owns the writer.
	Journal io.Writer
	// Live, when non-nil, is updated throughout the run for a
	// metrics endpoint or progress display to snapshot.
	Live *LiveStats
	// Interval, together with IntervalDir, samples every freshly
	// simulated cell at this cycle granularity and writes each
	// series to IntervalDir/<fingerprint>.json. Cached cells carry
	// no series (their simulation already happened).
	Interval    uint64
	IntervalDir string
	// Metrics, when non-nil, gets the campaign gauges registered on
	// it (live progress under "campaign", disk-cache counters under
	// "disk_cache") for a -http endpoint to serve; a LiveStats is
	// created if cfg.Live is nil.
	Metrics *telemetry.Metrics

	// CellTimeout bounds each cell's wall time (0: fall back to the
	// spec's cell_timeout, then no deadline). See
	// Scheduler.CellTimeout.
	CellTimeout time.Duration
	// Retry, when non-nil, overrides the spec's retry policy for
	// transient failures; nil falls back to spec.Retry (then no
	// retries). See Scheduler.Retry.
	Retry *RetryPolicy
	// KnownFailures pre-resolves cells whose deterministic failure an
	// earlier run recorded (set by Resume). See
	// Scheduler.KnownFailures.
	KnownFailures map[string]CellResult
	// StallFactor arms the campaign stall watchdog (0 disables);
	// StallMin floors its threshold. See Scheduler.StallFactor.
	StallFactor float64
	StallMin    time.Duration
	// OnStall observes the stall watchdog's flags (see
	// Scheduler.OnStall); the journal records them either way.
	OnStall func(StallReport)
	// Faults, when non-nil, arms the fault-injection points across
	// scheduler, disk cache and journal writer. Testing and the
	// -faults flag only.
	Faults *fault.Injector
}

// Execute runs a whole campaign: normalize and expand the spec,
// schedule the cells, aggregate the results. On cancellation it
// returns the partial summary together with ctx's error; cells
// already simulated are in the cache, so re-executing with the same
// CacheDir resumes instead of recomputing.
func Execute(ctx context.Context, spec Spec, cfg RunConfig) (*Summary, error) {
	plan, err := NewPlan(spec)
	if err != nil {
		return nil, err
	}
	sched := &Scheduler{
		Workers:       cfg.Workers,
		OnProgress:    cfg.OnProgress,
		OnStart:       cfg.OnStart,
		Live:          cfg.Live,
		KnownFailures: cfg.KnownFailures,
		StallFactor:   cfg.StallFactor,
		StallMin:      cfg.StallMin,
		OnStall:       cfg.OnStall,
		Faults:        cfg.Faults,
	}
	// Fault-tolerance knobs: an explicit RunConfig value wins, the
	// spec's declaration is the fallback.
	sched.CellTimeout = cfg.CellTimeout
	if sched.CellTimeout == 0 {
		sched.CellTimeout = plan.Spec.CellTimeout.Std()
	}
	if cfg.Retry != nil {
		sched.Retry = *cfg.Retry
	} else {
		sched.Retry = plan.Spec.Retry.Policy()
	}
	var disk *DiskCache
	if cfg.CacheDir != "" {
		cache, err := OpenDiskCache(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		cache.Faults = cfg.Faults
		// Read-side cache degradations (I/O errors, quarantined
		// corrupt entries) count into the same campaign counters as
		// the scheduler's own write-side ones.
		cache.OnDegrade = sched.Degrade
		sched.Cache = cache
		disk = cache
	}
	if !cfg.NoWarm {
		var store *CheckpointStore
		if cfg.CheckpointDir != "" {
			store, err = OpenCheckpointStore(cfg.CheckpointDir)
			if err != nil {
				return nil, err
			}
			store.OnDegrade = sched.Degrade
		}
		sched.Warm = NewWarm(store)
	}
	if cfg.Metrics != nil {
		if sched.Live == nil {
			sched.Live = &LiveStats{}
		}
		RegisterCampaignMetrics(cfg.Metrics, sched.Live, disk)
	}

	if cfg.Journal != nil {
		sched.journal = NewJournalWriter(cfg.Journal, plan, cfg.CacheDir)
		sched.journal.Faults = cfg.Faults
	}

	// Per-cell interval artifacts: the sink runs on worker
	// goroutines, so the first write error is recorded under a lock
	// and surfaced after the run instead of failing cells.
	var artErr error
	var artMu sync.Mutex
	if cfg.Interval > 0 && cfg.IntervalDir != "" {
		if err := os.MkdirAll(cfg.IntervalDir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: interval dir: %w", err)
		}
		sched.Interval = cfg.Interval
		sched.IntervalSink = func(c Cell, ivs []telemetry.Interval) {
			err := writeIntervalArtifact(cfg.IntervalDir, c.Key, ivs)
			if err != nil {
				artMu.Lock()
				if artErr == nil {
					artErr = err
				}
				artMu.Unlock()
			}
		}
	}

	results, sstats, err := sched.Run(ctx, plan.Cells)
	if sched.journal != nil {
		if jerr := sched.journal.Err(); err == nil && jerr != nil {
			err = fmt.Errorf("campaign: journal write: %w", jerr)
		}
	}
	if err == nil && artErr != nil {
		err = fmt.Errorf("campaign: interval artifact: %w", artErr)
	}
	return Aggregate(plan, results, sstats), err
}

// writeIntervalArtifact stores one cell's sampled series as
// <dir>/<fingerprint>.json, atomically via rename so a killed run
// never leaves a torn artifact next to good ones.
func writeIntervalArtifact(dir, key string, ivs []telemetry.Interval) error {
	var buf bytes.Buffer
	if err := telemetry.WriteIntervals(&buf, "json", ivs); err != nil {
		return err
	}
	return writeAtomic(filepath.Join(dir, key+".json"), buf.Bytes())
}
