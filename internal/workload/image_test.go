package workload

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"microlib/internal/trace"
)

// privateGenerator builds a generator on a program made outside the
// image table: the reference a shared image must reproduce.
func privateGenerator(prof Profile, seed uint64) *Generator {
	return buildProgram(prof, seed).newCursor()
}

// sameStream steps both generators n times and fails on the first
// differing instruction, then on differing cursors.
func sameStream(t *testing.T, got, want *Generator, n int) {
	t.Helper()
	var x, y trace.Inst
	for i := 0; i < n; i++ {
		got.Next(&x)
		want.Next(&y)
		if x != y {
			t.Fatalf("instruction %d: %+v, want %+v", i, x, y)
		}
	}
	if gs, ws := cursorOf(got), cursorOf(want); !reflect.DeepEqual(gs, ws) {
		t.Fatalf("cursor after %d instructions differs:\n%+v\nwant\n%+v", n, gs, ws)
	}
}

// TestSharedImageMidStream: a generator made while another generator
// of the same (profile, seed) is mid-stream shares its image, yet
// starts at the beginning of the stream and emits exactly what a
// privately built program emits.
func TestSharedImageMidStream(t *testing.T) {
	prof, _ := ByName("gcc")
	first := NewGenerator(prof, 3)
	var inst trace.Inst
	for i := 0; i < 123_457; i++ {
		first.Next(&inst)
	}
	second := NewGenerator(prof, 3)
	if second.prog != first.prog {
		t.Fatal("a live generator's image was not shared")
	}
	sameStream(t, second, privateGenerator(prof, 3), 200_000)

	// The first generator's cursor was not disturbed by the second.
	ref := privateGenerator(prof, 3)
	for i := 0; i < 123_457; i++ {
		ref.Next(&inst)
	}
	sameStream(t, first, ref, 10_000)
}

// TestSharedImageConcurrent: goroutines stepping generators over one
// image stay identical to each other (and race-free under -race).
func TestSharedImageConcurrent(t *testing.T) {
	prof, _ := ByName("mcf")
	const workers, n = 8, 50_000
	gens := make([]*Generator, workers)
	for i := range gens {
		gens[i] = NewGenerator(prof, 5)
		if gens[i].prog != gens[0].prog {
			t.Fatal("generators of one (profile, seed) built separate images")
		}
	}
	streams := make([][]trace.Inst, workers)
	var wg sync.WaitGroup
	for w := range gens {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]trace.Inst, n)
			for i := range out {
				gens[w].Next(&out[i])
			}
			streams[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range streams[w] {
			if streams[w][i] != streams[0][i] {
				t.Fatalf("goroutine %d diverged at instruction %d", w, i)
			}
		}
		if !reflect.DeepEqual(cursorOf(gens[w]), cursorOf(gens[0])) {
			t.Fatalf("goroutine %d ended on a different cursor", w)
		}
	}
}

// TestSharedImageIsolatedFromCaller: mutating the caller's profile
// after NewGenerator — slices included — cannot reach the live image
// or the streams of generators built on it.
func TestSharedImageIsolatedFromCaller(t *testing.T) {
	base, _ := ByName("equake")
	prof := base.clone()
	g := NewGenerator(prof, 9)

	for i := range prof.Patterns {
		prof.Patterns[i].Size *= 2
		prof.Patterns[i].Kind = PatRand
		for j := range prof.Patterns[i].Fields {
			prof.Patterns[i].Fields[j] += 8
		}
	}
	for i := range prof.Phases {
		for j := range prof.Phases[i].Weights {
			prof.Phases[i].Weights[j] = 1
		}
	}
	prof.Patterns[0] = PatternSpec{Kind: PatHot, Size: 64}

	if !reflect.DeepEqual(g.Profile(), base) {
		t.Fatal("caller mutation reached the image's profile")
	}
	again := NewGenerator(base, 9)
	if again.prog != g.prog {
		t.Fatal("the unmutated profile did not find the live image")
	}
	sameStream(t, g, privateGenerator(base, 9), 100_000)
	sameStream(t, again, privateGenerator(base, 9), 100_000)

	// Profile hands out a copy: writing through it is just as inert.
	out := g.Profile()
	out.Phases[0].Weights[0] = 1e9
	if !reflect.DeepEqual(g.Profile(), base) {
		t.Fatal("a Profile() result aliases the image")
	}
}

// TestImageReleasedWhenUnused: the table holds images weakly. Once no
// generator uses an image it is collected and its key forgotten, and
// the next generator of that (profile, seed) rebuilds an identical
// program.
func TestImageReleasedWhenUnused(t *testing.T) {
	prof, _ := ByName("gzip")
	const seed = 0x5eed_f00d
	registered := func() bool {
		images.Lock()
		defer images.Unlock()
		_, ok := images.m[imageKey{prof.Name, seed}]
		return ok
	}

	g := NewGenerator(prof, seed)
	if !registered() {
		t.Fatal("a live image is not in the table")
	}
	runtime.KeepAlive(g)
	for i := 0; i < 200 && registered(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if registered() {
		t.Fatal("an image no generator uses was never released")
	}
	sameStream(t, NewGenerator(prof, seed), privateGenerator(prof, seed), 50_000)
}

// TestProfileSameAsEveryField: the image lookup compares whole
// profiles, so changing any one field — a scalar, a slice element or a
// slice's length — must make the profiles differ, and a deep copy must
// not.
func TestProfileSameAsEveryField(t *testing.T) {
	base, _ := ByName("ammp")
	base.Patterns[0].Fields = []uint64{0, 8}
	if c := base.clone(); !base.sameAs(&c) {
		t.Fatal("a deep copy differs from its original")
	}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		case reflect.Slice:
			if v.Len() == 0 {
				t.Fatalf("%s: empty in the test profile, so it is not probed", path)
			}
			walk(v.Index(0), path+"[0]")
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.Slice:
			v.Set(v.Slice(0, v.Len()-1))
		default:
			t.Fatalf("%s: kind %s not probed", path, v.Kind())
		}
		changed := base.clone()
		v.Set(old)
		if base.sameAs(&changed) {
			t.Errorf("%s: changing it leaves the profile the same", path)
		}
	}
	walk(reflect.ValueOf(&base).Elem(), "Profile")
	if zero, neg := (Profile{}), (Profile{LoadFrac: math.Copysign(0, -1)}); zero.sameAs(&neg) {
		t.Error("0 and -0 compare the same")
	}
}

// cursorOf returns a copy of the generator's stream cursor.
func cursorOf(g *Generator) GeneratorState {
	var st GeneratorState
	g.StateInto(&st)
	return st
}

// TestConcurrentOpenBuildsOnce: goroutines that open one program at
// once share one build. Those that miss while it is in flight wait for
// it instead of building a duplicate, so exactly one image is built.
func TestConcurrentOpenBuildsOnce(t *testing.T) {
	prof, _ := ByName("gcc")
	prof.Name = "concurrent-open"
	const workers = 8
	before := ImagesBuilt()
	seed := 1000 + before // a program no earlier run left live
	gens := make([]*Generator, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range gens {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			gens[w] = NewGenerator(prof, seed)
		}(w)
	}
	close(start)
	wg.Wait()
	if n := ImagesBuilt() - before; n != 1 {
		t.Fatalf("%d goroutines opening one program built %d images, want 1", workers, n)
	}
	for _, g := range gens[1:] {
		if g.prog != gens[0].prog {
			t.Fatal("generators of one (profile, seed) hold different images")
		}
	}
	sameStream(t, gens[workers-1], privateGenerator(prof, seed), 10_000)
}
