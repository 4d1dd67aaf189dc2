package runner

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"microlib/internal/core"
	"microlib/internal/hier"
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

// TestCanonicalRendersLikeFmt holds the hand-written canonical
// renderer to the fmt form fingerprints have always used: Hier and CPU
// as %+v renders them, the rest as the format verbs below. Every field
// of both configurations, nested ones included, is set by reflection
// to a value no default uses, so a field the renderer misses or
// misorders fails here; each memory kind is rendered by name.
func TestCanonicalRendersLikeFmt(t *testing.T) {
	want := func(o Options) string {
		mech := o.Mechanism
		if mech == "" {
			mech = BaseName
		}
		insts := o.Insts
		if insts == 0 {
			insts = defaultInsts
		}
		keys := make([]string, 0, len(o.Params))
		for k := range o.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		bench, seed := o.identity()
		var sb strings.Builder
		fmt.Fprintf(&sb, "v%d|bench=%s|mech=%s|params={", FingerprintVersion, bench, mech)
		for i, k := range keys {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%s:%d", k, o.Params[k])
		}
		fmt.Fprintf(&sb, "}|hier=%+v|cpu=%+v", o.Hier, o.CPU)
		fmt.Fprintf(&sb, "|insts=%d|warmup=%d|skip=%d|seed=%d|inorder=%t|queue=%d|pfd=%t",
			insts, o.Warmup, o.Skip, seed, o.InOrder, o.QueueOverride, o.PrefetchAsDemand)
		return sb.String()
	}

	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(int64(-1000 - n))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(uint64(1<<40 + n))
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", n))
		default:
			t.Fatalf("configuration field of kind %s: teach this test and the renderer", v.Kind())
		}
	}
	odd := DefaultOptions("gzip", "GHB")
	fill(reflect.ValueOf(&odd.Hier).Elem())
	fill(reflect.ValueOf(&odd.CPU).Elem())
	odd.Params = core.Params{"b": -3, "a": 7}
	odd.Mechanism, odd.Insts, odd.Skip, odd.Seed = "", 0, 11, 1<<63
	odd.InOrder, odd.QueueOverride, odd.PrefetchAsDemand = true, -2, true

	cases := []Options{DefaultOptions("mcf", "TP"), odd}
	for _, k := range []hier.MemoryKind{hier.MemSDRAM, hier.MemConst70, hier.MemSDRAM70} {
		o := odd
		o.Hier.Memory = k
		cases = append(cases, o)
	}
	custom := DefaultOptions("x", "VC")
	custom.Workload = &Workload{Profile: &workload.Profile{Name: "p"}}
	cases = append(cases, custom)
	for i, o := range cases {
		if got, want := o.Canonical(), want(o); got != want {
			t.Fatalf("case %d renders\n%s\nwant\n%s", i, got, want)
		}
	}
}
