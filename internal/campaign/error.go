package campaign

import (
	"errors"
	"fmt"
	"time"

	"microlib/internal/fault"
)

// ErrKind classifies a cell failure for the retry policy and the
// per-kind reporting in journals, status and exit summaries.
type ErrKind string

// The failure taxonomy. Deterministic kinds (model, panic) are never
// retried — a rerun of the same options fails the same way, which is
// also what lets duplicate plan cells and resumed campaigns share a
// recorded failure. Transient kinds (timeout, io) may succeed on a
// retry or on resume.
const (
	// KindModel is a deterministic simulation error: bad options that
	// slipped past plan validation, a damaged trace file, an unknown
	// mechanism on hand-built cells.
	KindModel ErrKind = "model"
	// KindPanic is a recovered simulation panic (the OoO core's
	// no-commit-progress watchdog, a model bug).
	KindPanic ErrKind = "panic"
	// KindTimeout is a cell that exceeded the scheduler's per-cell
	// deadline.
	KindTimeout ErrKind = "timeout"
	// KindIO is infrastructure I/O (cache or journal) failing, not
	// the simulation itself.
	KindIO ErrKind = "io"
)

// Transient reports whether a failure of this kind may succeed when
// simply tried again; only transient failures are retried.
func (k ErrKind) Transient() bool { return k == KindTimeout || k == KindIO }

// CellError is a classified cell failure. Stack is only set for
// recovered panics.
type CellError struct {
	Kind  ErrKind
	Msg   string
	Stack string
}

// Error implements error.
func (e *CellError) Error() string { return e.Msg }

// Classify maps an arbitrary cell failure onto the taxonomy. Errors
// the scheduler did not wrap itself — everything runner.RunContext
// returns on its own — are deterministic model errors.
func Classify(err error) ErrKind {
	var ce *CellError
	if errors.As(err, &ce) {
		return ce.Kind
	}
	var fe *fault.Error
	if errors.As(err, &fe) {
		return KindIO
	}
	return KindModel
}

// ioErrorf builds a classified infrastructure I/O failure (transient:
// the retry policy may try it again, and resume treats it as
// recomputable). Worker-path code must use this — or errModelf — over
// naked fmt.Errorf so Classify never sees an unkinded error; mlvet's
// errkind analyzer enforces it.
func ioErrorf(format string, args ...any) *CellError {
	return &CellError{Kind: KindIO, Msg: fmt.Sprintf(format, args...)}
}

// errModelf builds a classified deterministic failure (contract
// violations, bad options): never retried, shareable across duplicate
// cells and resumes.
func errModelf(format string, args ...any) *CellError {
	return &CellError{Kind: KindModel, Msg: fmt.Sprintf(format, args...)}
}

// asCellError normalizes any cell failure into a *CellError so the
// journal and results always carry a kind.
func asCellError(err error) *CellError {
	var ce *CellError
	if errors.As(err, &ce) {
		return ce
	}
	return &CellError{Kind: Classify(err), Msg: err.Error()}
}

// RetryPolicy bounds transient-failure retries: up to Max extra
// attempts per operation, sleeping BaseDelay before the first retry
// and doubling (capped at 32×) before each later one. The zero value
// disables retries.
type RetryPolicy struct {
	Max       int           `json:"max"`
	BaseDelay time.Duration `json:"base_delay"`
}

// Delay returns the backoff before retry attempt n (1-based).
func (p RetryPolicy) Delay(attempt int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 5 {
		shift = 5
	}
	return p.BaseDelay << shift
}

// Degradation records a non-fatal infrastructure failure the campaign
// survived by degrading — a cache Put that could not persist (the
// cell recomputes next run), a quarantined corrupt entry, a failed
// layered-cache back-fill. Counted and journaled so a read-only or
// full cache directory is visible, not silent.
type Degradation struct {
	// Op names the degraded operation: "cache.put", "cache.get",
	// "cache.corrupt", "cache.backfill".
	Op  string
	Key string
	Err error
}

// StallReport is the scheduler watchdog's flag: no cell has finished
// for Idle, which exceeds Threshold (StallFactor × the median
// completed-cell wall time, floored at StallMin).
type StallReport struct {
	Idle      time.Duration
	Threshold time.Duration
	Median    time.Duration
	Done      int
	Total     int
}
