package runner

import (
	"context"
	"strings"
	"testing"
	"time"

	"microlib/internal/core"
	"microlib/internal/workload"
)

func TestFingerprintStable(t *testing.T) {
	a := DefaultOptions("gzip", "GHB")
	b := DefaultOptions("gzip", "GHB")
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("identical options produced different fingerprints:\n%s\n%s",
			a.Canonical(), b.Canonical())
	}
}

func TestFingerprintNormalizesDefaults(t *testing.T) {
	a := DefaultOptions("gzip", "")
	b := DefaultOptions("gzip", BaseName)
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("empty mechanism and %q must fingerprint identically", BaseName)
	}

	c := DefaultOptions("gzip", "GHB")
	c.Insts = 0
	d := DefaultOptions("gzip", "GHB")
	d.Insts = 200_000 // the Run default for a zero budget
	if c.Fingerprint() != d.Fingerprint() {
		t.Errorf("zero budget and the explicit default must fingerprint identically")
	}
}

func TestFingerprintParamsOrderInsensitive(t *testing.T) {
	a := DefaultOptions("gzip", "TCP")
	a.Params = core.Params{"queue": 8, "depth": 2, "size": 4096}
	b := DefaultOptions("gzip", "TCP")
	b.Params = core.Params{"size": 4096, "depth": 2, "queue": 8}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("param insertion order must not change the fingerprint")
	}
	if !strings.Contains(a.Canonical(), "depth:2,queue:8,size:4096") {
		t.Errorf("canonical form must sort params, got %s", a.Canonical())
	}
}

func TestFingerprintDistinguishesOptions(t *testing.T) {
	base := DefaultOptions("gzip", "GHB")
	seen := map[string]string{base.Fingerprint(): "base"}
	variants := map[string]Options{}

	v := base
	v.Bench = "mcf"
	variants["bench"] = v
	v = base
	v.Mechanism = "SP"
	variants["mechanism"] = v
	v = base
	v.Seed = 7
	variants["seed"] = v
	v = base
	v.InOrder = true
	variants["inorder"] = v
	v = base
	v.QueueOverride = 16
	variants["queue"] = v
	v = base
	v.PrefetchAsDemand = true
	variants["pfd"] = v
	v = base
	v.Insts = 1000
	variants["insts"] = v
	v = base
	v.Hier.L2.Size *= 2
	variants["hier"] = v
	v = base
	v.CPU.RUUSize = 64
	variants["cpu"] = v
	v = base
	v.Params = core.Params{"queue": 1}
	variants["params"] = v

	for name, opt := range variants {
		fp := opt.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[fp] = name
	}
}

func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions("gzip", BaseName)
	if _, err := RunContext(ctx, opts); err != context.Canceled {
		t.Fatalf("pre-canceled context: got %v, want context.Canceled", err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultOptions("gzip", BaseName)
	opts.Insts = 50_000_000 // far more than we are willing to wait for
	opts.Warmup = 0

	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, opts)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("simulation did not stop after cancellation")
	}
}

// CanonicalForms renders once and slices out the prefix and stream
// forms; each must equal its own rendering, also for a workload whose
// identity text mimics the canonical form's separators.
func TestCanonicalFormsMatchRenderings(t *testing.T) {
	base := DefaultOptions("gzip", "GHB")
	base.Skip = 1234
	prof, _ := workload.ByName("mcf")
	prof.Name = "odd|mech=TP|params={}|skip=9|seed=9"
	odd := base
	odd.Workload = &Workload{Profile: &prof}
	odd.Seed = 77
	trace := base
	trace.Workload = &Workload{TracePath: "x.mlt", TraceSHA: "abc"}
	for _, o := range []Options{base, odd, trace} {
		c, p, s := o.CanonicalForms()
		if c != o.Canonical() || p != o.PrefixCanonical() || s != o.StreamCanonical() {
			t.Fatalf("forms of %s:\nprefix %s\nwant   %s\nstream %s\nwant   %s",
				c, p, o.PrefixCanonical(), s, o.StreamCanonical())
		}
	}
}
