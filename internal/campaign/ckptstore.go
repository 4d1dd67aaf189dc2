package campaign

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"microlib/internal/runner"
)

// CheckpointStore persists warm-state prefix checkpoints under one
// directory, one gob file per prefix fingerprint — the content address
// of everything that shapes the simulation up to the warm-up boundary.
// It follows the DiskCache contract: writes go through a temp file and
// an atomic rename, a torn or corrupt entry reads as a miss and is
// quarantined to <key>.corrupt, and concurrent workers are safe.
// Unlike cell results, checkpoints are pure accelerators: losing one
// costs a prefix re-simulation, never a wrong number — every restore
// is bit-identical to the cold run it replaces.
type CheckpointStore struct {
	dir string

	// OnDegrade, when non-nil, observes read errors and corrupt-entry
	// quarantines (ops "ckpt.get", "ckpt.corrupt"). Set before the
	// store is shared across goroutines.
	OnDegrade func(Degradation)
}

// OpenCheckpointStore creates (if needed) and opens a checkpoint
// directory.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: open checkpoint store: %w", err)
	}
	return &CheckpointStore{dir: dir}, nil
}

// Dir returns the store directory.
func (s *CheckpointStore) Dir() string { return s.dir }

func (s *CheckpointStore) path(key string) string {
	return filepath.Join(s.dir, key+".ckpt")
}

func (s *CheckpointStore) degrade(d Degradation) {
	if s.OnDegrade != nil {
		s.OnDegrade(d)
	}
}

// Get returns the stored checkpoint for a prefix fingerprint, if
// present, intact, and produced by the current checkpoint format. A
// corrupt entry — undecodable bytes, or a checkpoint whose embedded
// canonical prefix does not hash back to its key — is quarantined and
// served as a miss; a version-skewed entry is just a miss (the next
// Put overwrites it).
func (s *CheckpointStore) Get(key string) (*runner.Checkpoint, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			s.degrade(Degradation{Op: "ckpt.get", Key: key, Err: err})
		}
		return nil, false
	}
	var ck runner.Checkpoint
	if derr := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); derr != nil || runner.CanonicalKey(ck.Prefix) != key {
		if derr == nil {
			derr = ioErrorf("campaign: checkpoint %s holds prefix %q", key, ck.Prefix)
		}
		s.degrade(Degradation{Op: "ckpt.corrupt", Key: key, Err: quarantine(s.path(key), derr)})
		return nil, false
	}
	if ck.Version != runner.CheckpointVersion {
		return nil, false
	}
	return &ck, true
}

// Put stores a checkpoint under its prefix fingerprint.
func (s *CheckpointStore) Put(key string, ck *runner.Checkpoint) error {
	if key == "" || ck == nil {
		return errModelf("campaign: checkpoint entry without key or body")
	}
	if runner.CanonicalKey(ck.Prefix) != key {
		return errModelf("campaign: checkpoint prefix %q does not hash to key %s", ck.Prefix, key)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		// An encode failure is a missing gob registration — a wiring
		// bug, not bad media — so it is deterministic, never retried.
		return errModelf("campaign: encode checkpoint: %v", err)
	}
	if err := writeAtomic(s.path(key), buf.Bytes()); err != nil {
		return ioErrorf("campaign: checkpoint write: %v", err)
	}
	return nil
}

// Keys lists the stored prefix fingerprints, sorted.
func (s *CheckpointStore) Keys() ([]string, error) {
	keys, err := listKeys(s.dir, ".ckpt")
	if err != nil {
		return nil, fmt.Errorf("campaign: list checkpoint store: %w", err)
	}
	return keys, nil
}
