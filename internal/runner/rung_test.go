package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"microlib/internal/hier"
)

// ladderOptions is a prefix group for the ladder tests: budgets vary,
// everything else is fixed.
func ladderOptions(mem hier.MemoryKind, mech string, inOrder bool) Options {
	opts := DefaultOptions("mcf", mech)
	opts.Hier = opts.Hier.WithMemory(mem)
	opts.InOrder = inOrder
	opts.Seed = 7
	opts.Skip = 1_000
	opts.Warmup = 3_000
	return opts
}

// ladder is one prefix group's checkpoint and the machine its cells
// run on, one after another, as a campaign worker runs them.
type ladder struct {
	t      *testing.T
	opts   Options
	prefix string
	ck     *Checkpoint
	m      *Machine
}

func newLadder(t *testing.T, opts Options) *ladder {
	t.Helper()
	ck, err := RunPrefixContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("prefix: %v", err)
	}
	m, err := NewCheckpointMachine(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return &ladder{t: t, opts: opts, prefix: opts.PrefixCanonical(), ck: ck, m: m}
}

// run runs budget n on the ladder's machine and checks it against a
// cold run; it reports whether the run started from a rung.
func (l *ladder) run(ctx context.Context, n uint64) bool {
	l.t.Helper()
	o := l.opts
	o.Insts = n
	warm, err := l.m.RunFromCheckpointPrefix(ctx, o, l.prefix, l.ck)
	if err != nil {
		l.t.Fatalf("ladder insts=%d: %v", n, err)
	}
	cold, err := Run(o)
	if err != nil {
		l.t.Fatalf("cold insts=%d: %v", n, err)
	}
	requireIdentical(l.t, fmt.Sprintf("insts=%d", n), cold, warm)
	return l.m.FromRung()
}

// TestRungLadderMatchesCold climbs the budget ladder on both cores,
// two memory kinds and the mechanisms of the restore golden matrix
// plus GHB, CDP and DBCP: one prefix, then ascending budgets, each
// after the first restoring the rung its predecessor captured. Every
// result must equal its cold run exactly. Then the fallbacks: budgets
// at or below the rung's horizon, which is every budget of a
// descending sweep, restore the warm-up checkpoint and still match
// cold.
func TestRungLadderMatchesCold(t *testing.T) {
	mems := []hier.MemoryKind{hier.MemSDRAM, hier.MemConst70}
	mechs := []string{"Base", "SP", "Markov", "EWB", "VC", "GHB", "CDP", "DBCP"}
	for _, mem := range mems {
		for _, mech := range mechs {
			for _, inOrder := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/inorder=%t", mem, mech, inOrder), func(t *testing.T) {
					l := newLadder(t, ladderOptions(mem, mech, inOrder))
					ctx := context.Background()
					for i, n := range []uint64{2_000, 3_000, 5_000, 9_000} {
						if fromRung := l.run(ctx, n); fromRung != (i > 0) {
							t.Fatalf("insts=%d: restored a rung = %t, want %t", n, fromRung, i > 0)
						}
					}
					for _, n := range []uint64{5_000, 3_000, 2_000} {
						if l.run(ctx, n) {
							t.Fatalf("insts=%d is inside the rung's horizon but restored the rung", n)
						}
					}
				})
			}
		}
	}
}

// flakyCtx is a context whose Err turns to Canceled on its n-th call:
// the run's entry check passes, and the stream's cancellation poll
// (every 1024 instructions) ends the run partway.
type flakyCtx struct {
	context.Context
	n int
}

func (c *flakyCtx) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// A canceled advance drops the rung: the run fails with the context's
// error, and the next cell restores the warm-up checkpoint.
func TestRungCanceledAdvanceLeavesNoRung(t *testing.T) {
	for _, inOrder := range []bool{false, true} {
		t.Run(fmt.Sprintf("inorder=%t", inOrder), func(t *testing.T) {
			l := newLadder(t, ladderOptions(hier.MemSDRAM, "GHB", inOrder))
			l.run(context.Background(), 2_000)

			o := l.opts
			o.Insts = 9_000
			_, err := l.m.RunFromCheckpointPrefix(&flakyCtx{Context: context.Background(), n: 3}, o, l.prefix, l.ck)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled ladder run: err = %v, want context.Canceled", err)
			}
			if l.run(context.Background(), 9_000) {
				t.Fatal("a canceled advance left a rung behind")
			}
		})
	}
}

// Capturing a rung reuses the previous rung's buffers: cache line
// arrays, MSHR and queue slices, the event list, the window, the
// generator cursor and the mechanism's tables. Alternating budgets
// make every run capture one; the cache line arrays of a fresh
// capture alone are about 450 KB, and DBCP's live map and used
// correlation entries tens of KB, so the bound leaves no room for
// rebuilding any of them.
func TestRungCaptureReusesBuffers(t *testing.T) {
	l := newLadder(t, ladderOptions(hier.MemSDRAM, "DBCP", false))
	ctx := context.Background()
	pair := func() {
		for _, n := range []uint64{3_000, 12_000} {
			o := l.opts
			o.Insts = n
			if _, err := l.m.RunFromCheckpointPrefix(ctx, o, l.prefix, l.ck); err != nil {
				t.Fatal(err)
			}
		}
		if !l.m.FromRung() {
			t.Fatal("the larger budget must climb from the smaller one's rung")
		}
	}
	for i := 0; i < 3; i++ {
		pair()
	}
	const pairs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	const maxBytes = 16 << 10
	if got := (after.TotalAlloc - before.TotalAlloc) / pairs; got > maxBytes {
		t.Fatalf("two ladder runs with rung captures allocate %d bytes, want <= %d: a capture is rebuilding its buffers", got, maxBytes)
	}
}
