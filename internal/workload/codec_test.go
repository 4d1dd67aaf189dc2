package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"microlib/internal/trace"
)

func validProfile() Profile {
	return Profile{
		Name: "custom-stream", FP: false,
		LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1, Mispredict: 0.05,
		CodeKB: 16, BlockLen: 6, DepMean: 5, FVProb: 0.1,
		Patterns: []PatternSpec{
			{Kind: PatHot, Size: 8 << 10},
			{Kind: PatStride, Size: 1 << 20, Stride: 64},
			{Kind: PatChase, Size: 1 << 20, NodeSize: 64, PtrOff: 8, Fields: []uint64{0, 8}},
		},
		Phases: []PhaseSpec{
			{Len: 10_000, Weights: []float64{10, 2, 1}},
			{Len: 8_000, Weights: []float64{10, 0, 3}},
		},
	}
}

// TestProfileJSONRoundTrip: decode(encode(p)) is p, and the decoded
// profile drives a bit-identical generator.
func TestProfileJSONRoundTrip(t *testing.T) {
	p := validProfile()
	data, err := p.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := q.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("canonical form not stable:\n%s\n%s", data, data2)
	}

	g1 := NewGenerator(p, 42)
	g2 := NewGenerator(q, 42)
	var i1, i2 trace.Inst
	for i := 0; i < 50_000; i++ {
		g1.Next(&i1)
		g2.Next(&i2)
		if i1 != i2 {
			t.Fatalf("stream diverged at %d: %+v vs %+v", i, i1, i2)
		}
	}
}

func TestPatternKindNames(t *testing.T) {
	for _, name := range PatternKindNames() {
		k, err := ParsePatternKind(name)
		if err != nil {
			t.Fatal(err)
		}
		if k.String() != name {
			t.Fatalf("kind %q round-trips to %q", name, k.String())
		}
	}
	if _, err := ParsePatternKind("zigzag"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// A misspelled profile field must fail loudly, not silently
	// simulate a different workload.
	if _, err := ParseProfile([]byte(`{"name":"x","load_fraction":0.9,"patterns":[{"kind":"hot"}],"phases":[{"len":10,"weights":[1]}]}`)); err == nil ||
		!strings.Contains(err.Error(), "load_fraction") {
		t.Fatalf("unknown profile field accepted: %v", err)
	}
	var k PatternKind
	if err := json.Unmarshal([]byte(`3`), &k); err == nil {
		t.Fatal("numeric kind accepted")
	}
	if err := json.Unmarshal([]byte(`"tile"`), &k); err != nil || k != PatTile {
		t.Fatalf("got %v %v", k, err)
	}
}

// TestBuiltinsEncode: every built-in profile survives the codec and
// passes its own validation.
func TestBuiltinsEncode(t *testing.T) {
	for _, name := range Names() {
		p, _ := ByName(name)
		data, err := p.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		q, err := ParseProfile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if q.Name != name {
			t.Fatalf("%s decoded as %s", name, q.Name)
		}
	}
}

func TestProfileValidation(t *testing.T) {
	mutate := func(f func(*Profile)) Profile {
		p := validProfile()
		f(&p)
		return p
	}
	cases := []struct {
		label string
		prof  Profile
		want  string
	}{
		{"no name", mutate(func(p *Profile) { p.Name = "" }), "needs a name"},
		{"mix", mutate(func(p *Profile) { p.LoadFrac = 0.8; p.StoreFrac = 0.4 }), "exceeds 1"},
		{"mispredict", mutate(func(p *Profile) { p.Mispredict = 1.5 }), "mispredict"},
		{"no patterns", mutate(func(p *Profile) { p.Patterns = nil }), "at least one pattern"},
		{"no phases", mutate(func(p *Profile) { p.Phases = nil }), "at least one phase"},
		{"zero phase", mutate(func(p *Profile) { p.Phases[0].Len = 0 }), "zero length"},
		{"weights len", mutate(func(p *Profile) { p.Phases[1].Weights = []float64{1} }), "1 weights for 3 patterns"},
		{"neg weight", mutate(func(p *Profile) { p.Phases[0].Weights[1] = -2 }), "negative"},
		{"zero weights", mutate(func(p *Profile) { p.Phases[0].Weights = []float64{0, 0, 0} }), "all-zero"},
		{"stride", mutate(func(p *Profile) { p.Patterns[1].Stride = 0 }), "stride > 0"},
		{"chase ptr", mutate(func(p *Profile) { p.Patterns[2].PtrOff = 60 }), "does not fit"},
		{"chase field", mutate(func(p *Profile) { p.Patterns[2].Fields = []uint64{120} }), "outside"},
		{"bad kind", mutate(func(p *Profile) { p.Patterns[0].Kind = PatternKind(99) }), "invalid pattern kind"},
	}
	for _, c := range cases {
		err := c.prof.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: want %q in error, got %v", c.label, c.want, err)
		}
	}
	p := validProfile()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	p := validProfile()
	if err := r.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(p); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate accepted: %v", err)
	}
	shadow := validProfile()
	shadow.Name = "mcf"
	if err := r.Add(shadow); err == nil || !strings.Contains(err.Error(), "built-in") {
		t.Fatalf("built-in shadowing accepted: %v", err)
	}
	if err := r.Reserve("mcf"); err == nil {
		t.Fatal("reserve shadowing a built-in accepted")
	}
	if err := r.Reserve("recorded"); err != nil {
		t.Fatal(err)
	}
	if err := r.Reserve(p.Name); err == nil {
		t.Fatal("reserve over a profile name accepted")
	}
	bad := validProfile()
	bad.Name, bad.Phases = "broken", nil
	if err := r.Add(bad); err == nil {
		t.Fatal("invalid profile accepted")
	}

	names := r.Names()
	if len(names) != len(Names())+2 {
		t.Fatalf("names: %d", len(names))
	}
	if names[len(names)-2] != p.Name || names[len(names)-1] != "recorded" {
		t.Fatalf("custom names not in registration order: %v", names[len(names)-2:])
	}
}

// TestPhaseLoopItersReset pins the phase-transition fix: the first
// loop of a new phase must run its full iteration budget even when
// the previous phase ended mid-loop-residency. The generator's loop
// cursor state right after a phase boundary must match a fresh
// generator fast-forwarded to that phase.
func TestPhaseLoopItersReset(t *testing.T) {
	p := validProfile()
	g := NewGenerator(p, 7)
	var inst trace.Inst
	// Run to just past the first phase boundary.
	for i := uint64(0); i < p.Phases[0].Len; i++ {
		g.Next(&inst)
	}
	if g.st.PhaseIdx != 1 {
		t.Fatalf("expected phase 1, in phase %d", g.st.PhaseIdx)
	}
	if g.st.LoopIters != 0 || g.st.CurLoop != 0 || g.st.BlockIdx != 0 || g.st.InstIdx != 0 {
		t.Fatalf("loop cursors not reset at phase entry: iters=%d loop=%d block=%d inst=%d",
			g.st.LoopIters, g.st.CurLoop, g.st.BlockIdx, g.st.InstIdx)
	}
}
