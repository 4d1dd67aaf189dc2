package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"microlib/internal/cpu"
	"microlib/internal/hier"
	"microlib/internal/telemetry"
	"microlib/internal/workload"
)

// normalize strips the live mechanism instance so two Results from
// different machines compare by value. Everything else — cycle counts,
// every cache/memory counter, IPC, hardware tables — must match
// bit-for-bit between a cold run and a checkpoint-restored one.
func normalize(r Result) Result {
	r.Mech = nil
	return r
}

func requireIdentical(t *testing.T, label string, cold, warm Result) {
	t.Helper()
	if !reflect.DeepEqual(normalize(cold), normalize(warm)) {
		t.Fatalf("%s: restored run diverged from live run\ncold: %+v\nwarm: %+v", label, normalize(cold), normalize(warm))
	}
}

// restoreFresh restores ck into a checkpoint machine built for opts
// alone and runs the measurement phase.
func restoreFresh(ctx context.Context, opts Options, ck *Checkpoint) (Result, error) {
	m, err := NewCheckpointMachine(ctx, opts)
	if err != nil {
		return Result{}, err
	}
	defer m.Close()
	return m.RunFromCheckpoint(ctx, opts, ck)
}

// TestCheckpointRestoreBitIdentity is the golden matrix: both host
// cores, every memory kind, a representative set of mechanisms
// (including ones that keep calendar events in flight: prefetchers,
// the victim cache's dirty marking, the eager write-back sweeps). For
// each cell a warm prefix is captured once and two measured budgets
// are forked from it; each must equal its cold run exactly.
func TestCheckpointRestoreBitIdentity(t *testing.T) {
	mems := []hier.MemoryKind{hier.MemSDRAM, hier.MemConst70, hier.MemSDRAM70}
	type cell struct {
		mech    string
		inOrder bool
	}
	cells := []cell{
		{"Base", false},
		{"Base", true},
		{"SP", false},
		{"Markov", false},
		{"EWB", false},
		{"VC", true},
	}
	for _, mem := range mems {
		for _, c := range cells {
			label := fmt.Sprintf("%s/%s/inorder=%t", mem, c.mech, c.inOrder)
			t.Run(label, func(t *testing.T) {
				opts := DefaultOptions("mcf", c.mech)
				opts.Hier = opts.Hier.WithMemory(mem)
				opts.InOrder = c.inOrder
				opts.Seed = 7
				opts.Skip = 1_000
				opts.Warmup = 3_000
				opts.Insts = 6_000

				ck, err := RunPrefixContext(context.Background(), opts)
				if err != nil {
					t.Fatalf("prefix: %v", err)
				}
				for _, insts := range []uint64{6_000, 4_000} {
					opts.Insts = insts
					cold, err := Run(opts)
					if err != nil {
						t.Fatalf("cold insts=%d: %v", insts, err)
					}
					warm, err := restoreFresh(context.Background(), opts, ck)
					if err != nil {
						t.Fatalf("warm insts=%d: %v", insts, err)
					}
					requireIdentical(t, fmt.Sprintf("%s insts=%d", label, insts), cold, warm)
				}
			})
		}
	}
}

// TestCheckpointRestoreBitIdentityTrace covers recorded-trace
// workloads: the restore re-establishes the file cursor by seeking,
// not by re-reading the prefix.
func TestCheckpointRestoreBitIdentityTrace(t *testing.T) {
	gen, err := workload.New("mcf", 11)
	if err != nil {
		t.Fatal(err)
	}
	path := recordTrace(t, gen, 12_000)
	for _, inOrder := range []bool{false, true} {
		t.Run(fmt.Sprintf("inorder=%t", inOrder), func(t *testing.T) {
			w, err := NewTraceWorkload(path)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions("", "SP")
			opts.Workload = w
			opts.InOrder = inOrder
			opts.Skip = 1_000
			opts.Warmup = 2_000
			opts.Insts = 4_000

			ck, err := RunPrefixContext(context.Background(), opts)
			if err != nil {
				t.Fatalf("prefix: %v", err)
			}
			cold, err := Run(opts)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			warm, err := restoreFresh(context.Background(), opts, ck)
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			requireIdentical(t, "trace", cold, warm)
		})
	}
}

// TestCheckpointMachineReuse restores one checkpoint into the same
// machine arena repeatedly — the campaign worker's steady state — and
// requires every forked measurement to equal its cold run.
func TestCheckpointMachineReuse(t *testing.T) {
	opts := DefaultOptions("mcf", "SP")
	opts.Seed = 3
	opts.Skip = 500
	opts.Warmup = 2_000
	opts.Insts = 5_000

	ck, err := RunPrefixContext(context.Background(), opts)
	if err != nil {
		t.Fatalf("prefix: %v", err)
	}
	m, err := NewCheckpointMachine(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Descending then ascending budgets, so at least one restore must
	// overwrite state left behind by a longer previous run.
	for _, insts := range []uint64{5_000, 3_000, 4_000} {
		opts.Insts = insts
		cold, err := Run(opts)
		if err != nil {
			t.Fatalf("cold insts=%d: %v", insts, err)
		}
		warm, err := m.RunFromCheckpoint(context.Background(), opts, ck)
		if err != nil {
			t.Fatalf("warm insts=%d: %v", insts, err)
		}
		requireIdentical(t, fmt.Sprintf("reuse insts=%d", insts), cold, warm)
	}
}

// TestCheckpointUnusableGuards exercises every fall-back-to-cold
// condition: version skew, a checkpoint or a machine of another
// prefix, a measured budget inside the fetch horizon, interval
// telemetry, and a machine whose last restore failed.
func TestCheckpointUnusableGuards(t *testing.T) {
	opts := DefaultOptions("mcf", "Base")
	opts.Skip = 500
	opts.Warmup = 2_000
	opts.Insts = 5_000

	ck, err := RunPrefixContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	stale := *ck
	stale.Version++
	if _, err := restoreFresh(context.Background(), opts, &stale); !errors.Is(err, ErrCheckpointUnusable) {
		t.Fatalf("version skew: err = %v, want ErrCheckpointUnusable", err)
	}

	other := opts
	other.Warmup++
	if _, err := restoreFresh(context.Background(), other, ck); !errors.Is(err, ErrCheckpointUnusable) {
		t.Fatalf("prefix mismatch: err = %v, want ErrCheckpointUnusable", err)
	}

	if ck.MinInsts > 0 {
		small := opts
		small.Insts = ck.MinInsts
		if _, err := restoreFresh(context.Background(), small, ck); !errors.Is(err, ErrCheckpointUnusable) {
			t.Fatalf("budget inside fetch horizon: err = %v, want ErrCheckpointUnusable", err)
		}
	}

	sampled := opts
	sampled.Interval = 1_000
	sampled.IntervalSink = func(telemetry.Interval) {}
	if _, err := restoreFresh(context.Background(), sampled, ck); !errors.Is(err, ErrCheckpointUnusable) {
		t.Fatalf("interval telemetry: err = %v, want ErrCheckpointUnusable", err)
	}

	// A machine of one prefix asked to restore another prefix's
	// options and checkpoint.
	otherCk, err := RunPrefixContext(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewCheckpointMachine(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.RunFromCheckpoint(context.Background(), other, otherCk); !errors.Is(err, ErrCheckpointUnusable) {
		t.Fatalf("machine prefix mismatch: err = %v, want ErrCheckpointUnusable", err)
	}
	if m.Prefix() != opts.PrefixCanonical() {
		t.Fatal("a refused restore must leave the machine its prefix")
	}

	// A restore that fails leaves the machine holding no prefix: no
	// valid checkpoint restores into it until it is rebuilt.
	both := *ck
	both.Machine.InOrder = new(cpu.InOrderState)
	if _, err := m.RunFromCheckpoint(context.Background(), opts, &both); err == nil || errors.Is(err, ErrCheckpointUnusable) {
		t.Fatalf("checkpoint with both core states: err = %v, want a restore error", err)
	}
	if m.Prefix() != "" {
		t.Fatalf("a failed restore left the machine holding prefix %q", m.Prefix())
	}
	for i := 0; i < 2; i++ {
		if _, err := m.RunFromCheckpoint(context.Background(), opts, ck); !errors.Is(err, ErrCheckpointUnusable) {
			t.Fatalf("restore %d after a failed one: err = %v, want ErrCheckpointUnusable", i, err)
		}
	}
	rebuilt, err := NewCheckpointMachineOn(context.Background(), opts, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Close()
	cold, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := rebuilt.RunFromCheckpoint(context.Background(), opts, ck)
	if err != nil {
		t.Fatalf("restore into the rebuilt machine: %v", err)
	}
	requireIdentical(t, "rebuilt", cold, warm)
}

// TestPrefixFingerprintGroups verifies the grouping key: the measured
// budget is masked, everything else is not.
func TestPrefixFingerprintGroups(t *testing.T) {
	a := DefaultOptions("mcf", "SP")
	b := a
	b.Insts = a.Insts * 2
	if a.PrefixFingerprint() != b.PrefixFingerprint() {
		t.Fatal("budgets must share a prefix fingerprint")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("budgets must not share a full fingerprint")
	}
	for _, mut := range []func(*Options){
		func(o *Options) { o.Warmup++ },
		func(o *Options) { o.Skip++ },
		func(o *Options) { o.Seed++ },
		func(o *Options) { o.Mechanism = "GHB" },
		func(o *Options) { o.InOrder = true },
		func(o *Options) { o.CPU.RUUSize *= 2 },
		func(o *Options) { o.Hier = o.Hier.WithMemory(hier.MemConst70) },
	} {
		c := a
		mut(&c)
		if a.PrefixFingerprint() == c.PrefixFingerprint() {
			t.Fatalf("prefix fingerprint failed to separate %s from %s", a.PrefixCanonical(), c.PrefixCanonical())
		}
	}
	// The stream key (campaign program grouping) ignores machine
	// configuration entirely.
	d := a
	d.CPU.RUUSize *= 2
	d.Mechanism = "GHB"
	d.Insts++
	d.Warmup++
	if a.StreamCanonical() != d.StreamCanonical() {
		t.Fatal("machine configuration must not enter the stream canonical form")
	}
	e := a
	e.Skip++
	if a.StreamCanonical() == e.StreamCanonical() {
		t.Fatal("skip must enter the stream canonical form")
	}
}
