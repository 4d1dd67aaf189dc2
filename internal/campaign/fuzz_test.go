package campaign

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"microlib/internal/runner"
	"microlib/internal/telemetry"
)

// fuzzCheckpointOptions is a small warm-up prefix: 1 KB caches keep
// its checkpoint a few kilobytes, so the fuzzer mutates a real one.
func fuzzCheckpointOptions() runner.Options {
	opts := runner.DefaultOptions("gzip", "SP")
	opts.Hier.L1D.Size, opts.Hier.L1I.Size, opts.Hier.L2.Size = 1<<10, 1<<10, 4<<10
	opts.Seed, opts.Warmup, opts.Insts = 1, 300, 1000
	return opts
}

// FuzzCheckpointStoreGet writes the fuzzed bytes as a store entry and
// reads it back. Get must never panic. A miss leaves either a
// quarantined entry or an intact one of another checkpoint version; a
// hit is a checkpoint of the current version whose prefix hashes to
// the key, and survives Put then Get as a deep-equal value. The
// seeds, captured afresh so they track CheckpointVersion, are a real
// warm-up checkpoint, a truncated copy and a copy whose prefix is
// another's.
func FuzzCheckpointStoreGet(f *testing.F) {
	opts := fuzzCheckpointOptions()
	key := runner.CanonicalKey(opts.PrefixCanonical())
	ck, err := runner.RunPrefixContext(f.Context(), opts)
	if err != nil {
		f.Fatal(err)
	}
	encode := func(ck *runner.Checkpoint) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := encode(ck)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	other := opts
	other.Seed++
	ck.Prefix = other.PrefixCanonical()
	f.Add(encode(ck))

	f.Fuzz(func(t *testing.T, data []byte) {
		store, err := OpenCheckpointStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		path := store.path(key)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := store.Get(key)
		if !ok {
			if _, err := os.Stat(path); err != nil {
				if _, err := os.Stat(filepath.Join(store.Dir(), key+".corrupt")); err != nil {
					t.Fatalf("a missed entry was neither kept nor quarantined: %v", err)
				}
				return
			}
			var kept runner.Checkpoint
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&kept); err != nil ||
				runner.CanonicalKey(kept.Prefix) != key || kept.Version == runner.CheckpointVersion {
				t.Fatalf("a corrupt or current entry was missed but not quarantined (decode err %v)", err)
			}
			return
		}
		if got.Version != runner.CheckpointVersion || runner.CanonicalKey(got.Prefix) != key {
			t.Fatalf("hit on version %d, prefix %q: want version %d and a prefix hashing to the key",
				got.Version, got.Prefix, runner.CheckpointVersion)
		}
		if err := store.Put(key, got); err != nil {
			t.Fatalf("re-storing a served checkpoint: %v", err)
		}
		again, ok := store.Get(key)
		if !ok || !reflect.DeepEqual(again, got) {
			t.Fatalf("a served checkpoint changed through Put and Get (hit %t)", ok)
		}
	})
}

// FuzzReadJournal feeds fuzzed JSONL through ReadJournal and
// SummarizeJournal, as `mlcampaign status` and resume read a journal.
// Either ends in a typed error or a status, never a panic: a torn last
// line still yields the events before it, damage mid-file is a JSON
// error with no events, and an empty journal is an error. The status
// folds every cell_done into exactly one of simulated, cached and
// failed, and counts every resume marker across runs.
func FuzzReadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadJournal(bytes.NewReader(data))
		var torn *telemetry.TornTailError
		if err != nil && !errors.As(err, &torn) {
			var syntax *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if !errors.As(err, &syntax) && !errors.As(err, &typ) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("untyped journal error %T: %v", err, err)
			}
			if evs != nil {
				t.Fatalf("a damaged journal returned %d events with its error", len(evs))
			}
			return
		}
		st, err := SummarizeJournal(evs)
		if err != nil {
			if len(evs) > 0 {
				t.Fatalf("%d events: %v", len(evs), err)
			}
			return
		}
		_ = st.Text()
		resumes := 0
		for _, e := range evs {
			if e.Ev == EvResume {
				resumes++
			}
		}
		if st.Resumes != resumes {
			t.Fatalf("status counts %d resumes, the journal holds %d", st.Resumes, resumes)
		}
		if st.Completed != st.Simulated+st.CacheHits+st.Errors {
			t.Fatalf("%d cells done but %d simulated + %d cached + %d failed", st.Completed, st.Simulated, st.CacheHits, st.Errors)
		}
		if len(st.Slowest) > 5 {
			t.Fatalf("%d slowest cells, want at most 5", len(st.Slowest))
		}
	})
}

// FuzzParseSpec runs ParseSpec and Normalize over fuzzed JSON — never
// NewPlan, so a fuzzed axis product sizes no plan. The result is an
// error or a normalized spec that re-marshals, re-parses and
// re-normalizes to a spec of the same encoding (JSON, the spec's
// format, does not tell an empty list from an absent one). A spec
// naming trace files is
// skipped: Normalize hashes the files it names, and a fuzzer must not
// choose which.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		for _, w := range spec.Workloads {
			if w.Trace != "" {
				t.Skip("names a trace file")
			}
		}
		if err := spec.Normalize(); err != nil {
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal a normalized spec: %v", err)
		}
		again, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("re-parse %s: %v", out, err)
		}
		if err := again.Normalize(); err != nil {
			t.Fatalf("re-normalize %s: %v", out, err)
		}
		if out2, err := json.Marshal(again); err != nil || !bytes.Equal(out2, out) {
			t.Fatalf("a normalized spec changed through marshal and normalize:\n got %s\nwant %s", out2, out)
		}
	})
}
