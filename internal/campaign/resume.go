package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"

	"microlib/internal/telemetry"
)

// ResumeInfo describes what Resume reconstructed before rerunning.
type ResumeInfo struct {
	// Torn is true when the journal ended in a torn line (the run was
	// killed mid-write); the intact prefix was used.
	Torn bool
	// Recovered counts plan cells already resolved by earlier runs:
	// successes sitting in the cache plus deterministic failures
	// replayed from the journal.
	Recovered int
	// KnownFailures counts the deterministic failures replayed from
	// the journal (a subset of Recovered).
	KnownFailures int
	// Remaining counts the distinct cells the resumed run still has
	// to simulate (transient failures and never-started cells).
	Remaining int
	// CacheDir is the cache directory the resumed run uses (the
	// original run's unless overridden).
	CacheDir string
}

// Resume continues a crashed or interrupted campaign from its
// journal: the embedded spec is re-expanded into the exact plan
// (verified by fingerprint), completed cells are served from the
// cache, deterministic failures are replayed from the journal without
// resimulation, and only the remainder runs. New events — a "resume"
// marker, then a full start/…/end sequence — are appended to the same
// journal file, so status always reflects the latest run.
//
// cfg is honored except Journal (Resume appends to journalPath
// itself), KnownFailures (reconstructed from the journal) and
// CacheDir (defaults to the original run's when empty). The returned
// info describes the reconstruction even when the rerun fails.
func Resume(ctx context.Context, journalPath string, cfg RunConfig) (*Summary, ResumeInfo, error) {
	var info ResumeInfo
	f, err := os.Open(journalPath)
	if err != nil {
		return nil, info, fmt.Errorf("campaign: resume: %w", err)
	}
	evs, err := ReadJournal(f)
	f.Close()
	var torn *telemetry.TornTailError
	if errors.As(err, &torn) {
		// A torn final line is exactly the debris a killed run leaves;
		// the intact prefix is the usable journal.
		info.Torn = true
	} else if err != nil {
		return nil, info, fmt.Errorf("campaign: resume %s: %w", journalPath, err)
	}

	// The latest start event carries the normalized spec; earlier
	// runs' cell events still contribute recorded failures below.
	var start *JournalEvent
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Ev == EvStart {
			start = &evs[i]
			break
		}
	}
	if start == nil {
		return nil, info, fmt.Errorf("campaign: resume %s: journal has no start event", journalPath)
	}
	if len(start.Spec) == 0 {
		return nil, info, fmt.Errorf("campaign: resume %s: journal embeds no spec (written before resume support?); rerun with mlcampaign run -spec", journalPath)
	}
	spec, err := ParseSpec(start.Spec)
	if err != nil {
		return nil, info, fmt.Errorf("campaign: resume %s: embedded spec: %w", journalPath, err)
	}
	spec.SetBaseDir(start.BaseDir)
	plan, err := NewPlan(spec)
	if err != nil {
		return nil, info, fmt.Errorf("campaign: resume %s: replan: %w", journalPath, err)
	}
	if fp := plan.Fingerprint(); start.Plan != "" && fp != start.Plan {
		return nil, info, fmt.Errorf("campaign: resume %s: plan fingerprint changed (journal %s, replanned %s) — workload trace edited since the original run?",
			journalPath, shortKey(start.Plan), shortKey(fp))
	}

	info.CacheDir = cfg.CacheDir
	if info.CacheDir == "" {
		info.CacheDir = start.CacheDir
	}
	if info.CacheDir == "" {
		return nil, info, fmt.Errorf("campaign: resume %s: the original run had no cache dir (nothing persisted its cells); pass one explicitly", journalPath)
	}

	// Reconstruct what earlier runs resolved. Successes live in the
	// cache (the scheduler's probe serves them); deterministic
	// failures are replayed from the journal so the doomed cells are
	// not resimulated. Transient failures rerun.
	known := map[string]CellResult{}
	for _, e := range evs {
		if e.Ev != EvCellDone || e.Err == "" {
			continue
		}
		if kind := ErrKind(e.ErrKind); !kind.Transient() {
			known[e.Key] = CellResult{
				Key:       e.Key,
				Bench:     e.Bench,
				Mechanism: e.Mech,
				Seed:      e.Seed,
				Err:       e.Err,
				ErrKind:   e.ErrKind,
			}
		}
	}
	// Only keys the replanned campaign can actually reach count; a
	// journal from a broader earlier spec must not inflate the tally.
	distinct := map[string]bool{}
	for _, c := range plan.Cells {
		distinct[c.Key] = true
	}
	cache, err := OpenDiskCache(info.CacheDir)
	if err != nil {
		return nil, info, err
	}
	cachedKeys, err := cache.Keys()
	if err != nil {
		return nil, info, err
	}
	cached := map[string]bool{}
	for _, k := range cachedKeys {
		cached[k] = true
	}
	for k := range known {
		if cached[k] {
			// A success in the cache outranks an older recorded
			// failure (the failure's cause — say a then-broken trace
			// file — was evidently repaired between runs).
			delete(known, k)
		}
	}
	//ml:commutative -- pure counter sums; addition is order-independent
	for k := range distinct {
		switch {
		case cached[k]:
			info.Recovered++
		case known[k].Key != "":
			info.Recovered++
			info.KnownFailures++
		default:
			info.Remaining++
		}
	}

	jf, err := os.OpenFile(journalPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, info, fmt.Errorf("campaign: resume: %w", err)
	}
	defer jf.Close()
	marker := NewJournalWriter(jf, plan, info.CacheDir)
	marker.Faults = cfg.Faults
	marker.Resume(info.Recovered, info.Remaining)
	if err := marker.Err(); err != nil {
		return nil, info, fmt.Errorf("campaign: resume: %w", err)
	}

	cfg.Journal = jf
	cfg.KnownFailures = known
	cfg.CacheDir = info.CacheDir
	sum, err := Execute(ctx, spec, cfg)
	return sum, info, err
}
