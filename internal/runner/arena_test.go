package runner

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"testing"

	"microlib/internal/core"
	"microlib/internal/cpu"
	"microlib/internal/hier"
)

// TestArenaRecyclingMatchesFresh runs one machine arena through an
// adversarial sequence: every build recycles the previous, dirty
// machine, which ran another mechanism, benchmark, host core or L1D
// geometry. The sequence covers every mechanism and Base on both
// cores and two L1D geometries, and rotates through the ways an arena
// builds a machine: a cold run (Run), a prefix capture restored in
// place (Capture, Restore), a checkpoint machine for a foreign
// checkpoint (Restore), and a prefix capture left mid-flight. The
// last leaves the next build an engine with pending ring events (plus
// one injected far past the ring, in the overflow heap) and a window
// whose entries have waiters. Every capture goes into the arena's
// checkpoint buffer, which holds another machine's state, and every
// build hands its mechanism tables on through the arena's tables, so
// each DBCP and Markov build after the first takes a dirty table of
// its name. Every result must equal a fresh cold RunContext, and every
// capture into a recycled checkpoint a fresh capture (one of them
// taken before the window wraps): recycled storage carries nothing
// over.
func TestArenaRecyclingMatchesFresh(t *testing.T) {
	small := hier.DefaultConfig()
	small.L1D.Size = 1 << 10
	small.L1D.Assoc = 1
	small.L1D.Ports = 1
	small.L1D.MSHRs = 1
	small.L1D.ReadsPerMSHR = 1
	geoms := []hier.Config{hier.DefaultConfig(), small}
	benches := []string{"gzip", "mcf", "art"}
	mechs := append([]string{BaseName}, core.Names()...)
	if len(mechs) != 14 {
		t.Fatalf("want Base and 13 mechanisms, got %v", mechs)
	}

	ctx := context.Background()
	a := NewArenas(1)[0]
	defer a.Close()
	var ck *Checkpoint
	dirty, waiters := 0, 0
	step := 0
	for _, mech := range mechs {
		for _, inorder := range []bool{false, true} {
			for _, geom := range geoms {
				opts := DefaultOptions(benches[step%len(benches)], mech)
				opts.Hier = geom
				opts.InOrder = inorder
				// Each mechanism's four steps are one kind of build
				// each, the kinds shifted by one per mechanism, so every
				// kind meets both cores and both geometries.
				kind := (step + step/4) % 4
				opts.Warmup = 1000
				if kind == 3 {
					// A capture before the window has wrapped: a slot
					// the recycled core did not clear would show in it.
					opts.Warmup = 8
				}
				opts.Insts = 4000
				opts.Seed = uint64(step%4 + 1)
				want, err := RunContext(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				// TK scans its maps in iteration order, a known defect
				// (ROADMAP, "Deterministic mechanisms"): on the 1-MSHR
				// L1D even two fresh runs differ, so there is no
				// reference to hold the arena to. The step still runs,
				// so the next build recycles its machine.
				check := mech != "TK" || geom.L1D.MSHRs > 1

				var got Result
				switch kind {
				case 0:
					got, err = a.Run(ctx, opts)
				case 1:
					ck, err = a.Capture(ctx, opts)
					if err == nil {
						got, _, _, err = a.Restore(ctx, opts, opts.PrefixCanonical(), ck)
					}
				case 2:
					ck, err = RunPrefixContext(ctx, opts)
					if err == nil {
						got, _, _, err = a.Restore(ctx, opts, opts.PrefixCanonical(), ck)
					}
				case 3:
					ck, err = a.Capture(ctx, opts)
					if err == nil {
						got, err = restoreFresh(ctx, opts, ck)
					}
					if err == nil {
						m := a.m
						if m.eng.Pending() > 0 {
							dirty++
						}
						m.eng.AtFunc(m.eng.Now()+1<<20, func(uint64, any, any, uint64, uint64) {
							panic("an event of a recycled engine fired")
						}, m, nil, 0, 0)
						if m.ooo != nil {
							var st cpu.OoOState
							m.ooo.StateInto(&st)
							for _, e := range st.Win {
								if len(e.Waiters) > 0 {
									waiters++
									break
								}
							}
						}
					}
				}
				if err != nil {
					t.Fatalf("%s/%s inorder=%t L1D=%dB: %v", opts.Bench, mech, inorder, geom.L1D.Size, err)
				}
				if check && !sameResult(got, want) {
					t.Fatalf("%s/%s inorder=%t L1D=%dB (step %d): recycled machine differs from a fresh one:\ngot  %+v\nwant %+v",
						opts.Bench, mech, inorder, geom.L1D.Size, step, got, want)
				}
				if kind == 1 && check {
					// The capture machine ran on past the capture: the
					// checkpoint must not share its state.
					again, err := restoreFresh(ctx, opts, ck)
					if err != nil || !sameResult(again, want) {
						t.Fatalf("%s/%s inorder=%t L1D=%dB: checkpoint changed after its capture machine ran on (%v)",
							opts.Bench, mech, inorder, geom.L1D.Size, err)
					}
				}
				if (kind == 1 || kind == 3) && check {
					// A capture on recycled storage into a recycled
					// checkpoint holds what a fresh capture holds.
					fresh, err := RunPrefixContext(ctx, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !sameCheckpoint(t, ck, fresh) {
						t.Fatalf("%s/%s inorder=%t L1D=%dB (step %d): recycled capture differs from a fresh one",
							opts.Bench, mech, inorder, geom.L1D.Size, step)
					}
				}
				step++
			}
		}
	}
	if dirty == 0 || waiters == 0 {
		t.Fatalf("the sequence must recycle mid-flight machines: %d with pending events, %d with window waiters", dirty, waiters)
	}
}

// sameCheckpoint compares two checkpoints as they would be stored:
// through gob, which reads an empty slice as nil, as a restore does.
func sameCheckpoint(t *testing.T, a, b *Checkpoint) bool {
	t.Helper()
	decoded := func(ck *Checkpoint) Checkpoint {
		var buf bytes.Buffer
		var out Checkpoint
		if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	return reflect.DeepEqual(decoded(a), decoded(b))
}

// sameResult compares two results in everything but the live
// mechanism instance.
func sameResult(a, b Result) bool {
	a.Mech, b.Mech = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestRecycledTablesLeaveCheckpointsIntact holds the mechanism tables
// a run's arenas keep apart from every snapshot. It captures a warm-up
// checkpoint on a DBCP machine and one on a Markov machine, each on an
// arena of its own, whose next build hands their tables on to later
// machines of the same names on other programs, on a third arena over
// the same tables. Those capture into the third arena's one checkpoint
// buffer, alternating the two mechanisms, so each name has a displaced
// snapshot kept on that arena while its table storage is kept in the
// shared tables (Markov snapshots are built in a kept snapshot's
// arrays by statecopy.Recycle), and each runs on past its capture.
// Every capture must still hold what a fresh one holds, and the first
// checkpoints must encode to the bytes they did and restore
// bit-identically: no table ever shares an array with a snapshot.
func TestRecycledTablesLeaveCheckpointsIntact(t *testing.T) {
	ctx := context.Background()
	cell := func(bench, mech string) Options {
		opts := DefaultOptions(bench, mech)
		opts.Seed, opts.Warmup, opts.Insts = 3, 3000, 5000
		return opts
	}
	encode := func(ck *Checkpoint) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	arenas := NewArenas(3)
	for _, a := range arenas {
		defer a.Close()
	}

	firsts := []Options{cell("gzip", "DBCP"), cell("gzip", "Markov")}
	var cks []*Checkpoint
	var encoded [][]byte
	for i, opts := range firsts {
		ck, err := arenas[i].Capture(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		cks, encoded = append(cks, ck), append(encoded, encode(ck))
		// The arena's next build gives the capture machine's tables up.
		if _, err := arenas[i].Run(ctx, cell("gzip", BaseName)); err != nil {
			t.Fatal(err)
		}
	}

	a := arenas[2]
	for _, bench := range []string{"mcf", "art"} {
		for _, mech := range []string{"Markov", "DBCP"} {
			opts := cell(bench, mech)
			x, err := a.Capture(ctx, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, _, _, err := a.Restore(ctx, opts, opts.PrefixCanonical(), x)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunContext(ctx, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) {
				t.Fatalf("%s/%s on recycled tables differs from a fresh run", bench, mech)
			}
			fresh, err := RunPrefixContext(ctx, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCheckpoint(t, x, fresh) {
				t.Fatalf("%s/%s: the capture changed while its machine ran on: a table shares a snapshot's array", bench, mech)
			}
		}
	}

	for i, opts := range firsts {
		if !bytes.Equal(encode(cks[i]), encoded[i]) {
			t.Fatalf("%s's first checkpoint changed after later machines took its tables", opts.Mechanism)
		}
		want, err := RunContext(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := restoreFresh(ctx, opts, cks[i])
		if err != nil {
			t.Fatal(err)
		}
		recycled, _, _, err := a.Restore(ctx, opts, opts.PrefixCanonical(), cks[i])
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(fresh, want) || !sameResult(recycled, want) {
			t.Fatalf("%s's first checkpoint no longer restores bit-identically", opts.Mechanism)
		}
	}
}
