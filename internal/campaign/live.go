package campaign

import (
	"maps"
	"sync"
	"time"
)

// LiveStats is the mid-run view of a campaign: the scheduler feeds it
// the run's events, and a metrics endpoint (or the progress line)
// snapshots it concurrently. Its counters are the fold of the events;
// it adds only clocks and gauges. The zero value is ready to use.
type LiveStats struct {
	mu      sync.Mutex
	stats   SchedulerStats
	started time.Time
	workers int
	running int
	insts   uint64
	// simWall accumulates per-cell simulation wall time across all
	// workers; simWall / (workers * elapsed) is pool utilization.
	simWall time.Duration
}

// LiveSnapshot is one consistent reading of a running campaign: the
// counters so far plus the pool's state and derived rates.
type LiveSnapshot struct {
	SchedulerStats
	Running int           `json:"running"`
	Workers int           `json:"workers"`
	Insts   uint64        `json:"insts"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// CellsPerSec is overall completion throughput since the
	// scheduler started (cached and simulated cells alike).
	CellsPerSec float64 `json:"cells_per_sec"`
	// InstsPerSec is aggregate simulation speed across the pool.
	InstsPerSec float64 `json:"insts_per_sec"`
	// Utilization is the fraction of worker capacity spent inside
	// simulations so far, in [0,1]; low values mean the campaign is
	// cache- or scheduling-bound, not simulation-bound.
	Utilization float64 `json:"utilization"`
	// ETA extrapolates the remaining cells at the current
	// throughput; zero until at least one cell has finished.
	ETA time.Duration `json:"eta_ns"`
}

func (l *LiveStats) apply(e Event) {
	l.mu.Lock()
	l.stats.apply(e)
	switch e.Ev {
	case EvStart:
		l.started, l.workers, l.insts, l.simWall = time.Now(), e.Workers, 0, 0
	case EvPrefix:
		l.insts += e.Insts
	case EvCellDone:
		l.insts += e.Insts
		l.simWall += e.Wall
	}
	l.mu.Unlock()
}

func (l *LiveStats) cellRunning(delta int) {
	l.mu.Lock()
	l.running += delta
	l.mu.Unlock()
}

// Snapshot returns a consistent reading with the derived rates filled
// in. Safe to call at any time from any goroutine.
func (l *LiveStats) Snapshot() LiveSnapshot {
	l.mu.Lock()
	s := LiveSnapshot{
		SchedulerStats: l.stats,
		Running:        l.running,
		Workers:        l.workers,
		Insts:          l.insts,
	}
	// The fold keeps counting after the lock is released.
	s.FailedKinds = maps.Clone(s.FailedKinds)
	started, simWall := l.started, l.simWall
	l.mu.Unlock()

	if started.IsZero() {
		return s
	}
	s.Elapsed = time.Since(started)
	sec := s.Elapsed.Seconds()
	if sec > 0 {
		s.CellsPerSec = float64(s.Completed) / sec
		s.InstsPerSec = float64(s.Insts) / sec
		if s.Workers > 0 {
			s.Utilization = simWall.Seconds() / (float64(s.Workers) * sec)
			if s.Utilization > 1 {
				s.Utilization = 1
			}
		}
	}
	if s.Completed > 0 && s.Completed < s.Total && s.CellsPerSec > 0 {
		s.ETA = time.Duration(float64(s.Total-s.Completed) / s.CellsPerSec * float64(time.Second))
	}
	return s
}
