package runner

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"microlib/internal/core"
)

// TestCheckpointGobRoundTrip sends the checkpoint of Base and of every
// registered mechanism, on both host cores, through encoding/gob, as a
// persisted -ckpt file does, and requires the run restored from the
// decoded copy to equal the cold run. An in-memory restore never
// exercises gob: a state field gob cannot carry would pass there and
// be lost on disk.
func TestCheckpointGobRoundTrip(t *testing.T) {
	mechs := append([]string{BaseName}, core.Names()...)
	for _, mech := range mechs {
		for _, inOrder := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/inorder=%t", mech, inOrder), func(t *testing.T) {
				opts := DefaultOptions("mcf", mech)
				opts.InOrder = inOrder
				opts.Seed = 7
				opts.Skip = 1_000
				opts.Warmup = 3_000
				opts.Insts = 6_000

				ck, err := RunPrefixContext(context.Background(), opts)
				if err != nil {
					t.Fatalf("prefix: %v", err)
				}
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
					t.Fatalf("encode: %v", err)
				}
				var decoded Checkpoint
				if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
					t.Fatalf("decode: %v", err)
				}
				cold, err := Run(opts)
				if err != nil {
					t.Fatalf("cold: %v", err)
				}
				warm, err := restoreFresh(context.Background(), opts, &decoded)
				if err != nil {
					t.Fatalf("warm: %v", err)
				}
				requireIdentical(t, mech, cold, warm)
			})
		}
	}
}

// TestCheckpointSchemaPinned compares the gob-visible shape of
// Checkpoint, every mechanism's snapshot type included, with the copy
// pinned for the current CheckpointVersion. gob matches fields by name
// and leaves missing ones at zero, so a renamed or retyped field with
// no version bump would restore an old checkpoint file as silently
// wrong state. A shape change must bump CheckpointVersion and pin the
// new shape in a new testdata file.
func TestCheckpointSchemaPinned(t *testing.T) {
	got := checkpointSchema(t)
	path := filepath.Join("testdata", fmt.Sprintf("checkpoint-v%d.schema", CheckpointVersion))
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no pinned schema for CheckpointVersion %d (%v); the current shape is:\n%s", CheckpointVersion, err, got)
	}
	if got != string(want) {
		t.Fatalf("checkpoint gob shape differs from %s without a CheckpointVersion bump: "+
			"bump the version and pin the new shape in a new file. The current shape is:\n%s", path, got)
	}
}

// checkpointSchema renders the shape: one line per struct type
// reachable from Checkpoint, then one line per mechanism naming the
// gob-registered type its SnapState returns into MachineState.Mech.
// Struct names only label the lines; gob matches fields by name and
// kind, so fields render by kind, pointers flattened and unexported,
// chan and func fields dropped, as gob treats them.
func checkpointSchema(t *testing.T) string {
	defs := map[string]string{}
	var shape func(rt reflect.Type) string
	shape = func(rt reflect.Type) string {
		switch rt.Kind() {
		case reflect.Pointer:
			return shape(rt.Elem())
		case reflect.Slice:
			return "[]" + shape(rt.Elem())
		case reflect.Array:
			return fmt.Sprintf("[%d]%s", rt.Len(), shape(rt.Elem()))
		case reflect.Map:
			return "map[" + shape(rt.Key()) + "]" + shape(rt.Elem())
		case reflect.Struct:
			name := rt.String()
			if _, done := defs[name]; !done {
				defs[name] = ""
				var fields []string
				for i := 0; i < rt.NumField(); i++ {
					f := rt.Field(i)
					if !f.IsExported() || f.Type.Kind() == reflect.Chan || f.Type.Kind() == reflect.Func {
						continue
					}
					fields = append(fields, f.Name+" "+shape(f.Type))
				}
				defs[name] = "{" + strings.Join(fields, "; ") + "}"
			}
			return name
		}
		return rt.Kind().String()
	}
	shape(reflect.TypeOf(Checkpoint{}))

	var mechs []string
	for _, name := range core.Names() {
		opts := DefaultOptions("mcf", name)
		opts.Warmup = 1
		m, err := NewCheckpointMachine(context.Background(), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := m.mech.(core.Snapshotter).SnapState(nil)
		m.Close()
		rt := reflect.TypeOf(st)
		mechs = append(mechs, fmt.Sprintf("mech %s: %s.%s = %s", name, rt.PkgPath(), rt.Name(), shape(rt)))
	}

	names := make([]string, 0, len(defs))
	for n := range defs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %s\n", n, defs[n])
	}
	for _, l := range mechs {
		b.WriteString(l + "\n")
	}
	return b.String()
}
