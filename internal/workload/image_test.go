package workload

import (
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
	if gs, ws := got.State(), want.State(); !reflect.DeepEqual(gs, ws) {
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
		if !reflect.DeepEqual(gens[w].State(), gens[0].State()) {
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
	key, ok := imageKey(prof, seed)
	if !ok {
		t.Fatal("built-in profile has no canonical form")
	}
	registered := func() bool {
		images.Lock()
		defer images.Unlock()
		_, ok := images.m[string(key)]
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
