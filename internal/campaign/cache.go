package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"microlib/internal/core"
	"microlib/internal/fault"
)

// CellResult is the serializable outcome of one cell — the subset of
// runner.Result the aggregation layer needs, small enough to persist
// per cell. Err is set (and the rest zero) when the simulation
// failed; failed cells are never written to the cache.
type CellResult struct {
	Key       string  `json:"key"`
	Bench     string  `json:"bench"`
	Mechanism string  `json:"mechanism"`
	Seed      uint64  `json:"seed"`
	IPC       float64 `json:"ipc"`
	Cycles    uint64  `json:"cycles"`
	Insts     uint64  `json:"insts"`

	L1DMissRatio   float64 `json:"l1d_miss_ratio"`
	L2MissRatio    float64 `json:"l2_miss_ratio"`
	PrefetchIssued uint64  `json:"prefetch_issued,omitempty"`
	PrefetchUseful uint64  `json:"prefetch_useful,omitempty"`
	AvgReadLatency float64 `json:"avg_read_latency"`

	// Hardware lists the mechanism's SRAM structures with their
	// activity counters, and BaseCacheAccesses approximates base
	// cache activity — the inputs of the CACTI/XCACTI-style cost and
	// power models (Figure 5). Fresh results always carry a non-nil
	// (possibly empty) Hardware slice; nil marks an entry cached
	// before these fields existed, which is still valid for IPC but
	// carries no cost data — the Figure 5 formatter flags such cells
	// instead of silently reporting the mechanism as cost-free.
	Hardware          []core.HWTable `json:"hardware"`
	BaseCacheAccesses uint64         `json:"base_cache_accesses,omitempty"`

	// Refusals is the cell's cache-refusal pressure: cache-side
	// rejects summed over the hierarchy plus the core-side per-reason
	// retry counts. Entries cached before these fields existed decode
	// as all-zero, which reads as "no pressure recorded" (the
	// Hardware-nil precedent applies: still valid for IPC).
	Refusals RefusalStats `json:"refusals,omitzero"`

	Err string `json:"err,omitempty"`
	// ErrKind classifies Err per the failure taxonomy
	// (model/panic/timeout/io); empty when Err is empty.
	ErrKind string `json:"err_kind,omitempty"`
}

// RefusalStats aggregates cache-refusal pressure: how often the
// hierarchy's caches refused an access (by reason) and how often the
// core absorbed a refusal on its retry paths.
type RefusalStats struct {
	RejectPort  uint64 `json:"reject_port,omitempty"`
	RejectStall uint64 `json:"reject_stall,omitempty"`
	RejectMSHR  uint64 `json:"reject_mshr,omitempty"`
	RetryPort   uint64 `json:"retry_port,omitempty"`
	RetryStall  uint64 `json:"retry_stall,omitempty"`
	RetryMSHR   uint64 `json:"retry_mshr,omitempty"`
}

// Total is the summed refusal count across reasons (cache side).
func (r RefusalStats) Total() uint64 {
	return r.RejectPort + r.RejectStall + r.RejectMSHR
}

// add accumulates another cell's refusal pressure.
func (r *RefusalStats) add(o RefusalStats) {
	r.RejectPort += o.RejectPort
	r.RejectStall += o.RejectStall
	r.RejectMSHR += o.RejectMSHR
	r.RetryPort += o.RetryPort
	r.RetryStall += o.RetryStall
	r.RetryMSHR += o.RetryMSHR
}

// MemCache is an in-process CellCache: a plain map under a mutex.
// The experiments harness layers it in front of the disk cache so
// every figure of one run shares cells (the paper's figures overlap
// heavily — fig8's SDRAM arm is the main grid).
type MemCache struct {
	mu sync.Mutex
	m  map[string]CellResult
}

// NewMemCache returns an empty in-process cell cache.
func NewMemCache() *MemCache { return &MemCache{m: map[string]CellResult{}} }

// Get implements CellCache.
func (c *MemCache) Get(key string) (CellResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.m[key]
	return res, ok
}

// Put implements CellCache.
func (c *MemCache) Put(res CellResult) error {
	if res.Key == "" {
		return errModelf("campaign: cache entry without key")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[res.Key] = res
	return nil
}

// LayeredCache chains caches: Get tries each layer in order, filling
// the earlier (faster) layers on a hit; Put writes through to all.
type LayeredCache struct {
	Layers []CellCache
	// OnDegrade, when non-nil, observes back-fill Put failures (the
	// hit is still served; the failing front layer keeps missing).
	OnDegrade func(Degradation)
}

// Get implements CellCache.
func (c *LayeredCache) Get(key string) (CellResult, bool) {
	for i, layer := range c.Layers {
		if res, ok := layer.Get(key); ok {
			for _, front := range c.Layers[:i] {
				if err := front.Put(res); err != nil && c.OnDegrade != nil {
					// The hit stands; the front layer just keeps
					// missing — degraded, not fatal, but visible.
					c.OnDegrade(Degradation{Op: "cache.backfill", Key: key, Err: err})
				}
			}
			return res, true
		}
	}
	return CellResult{}, false
}

// Put implements CellCache. The first layer error is returned, but
// every layer sees the entry (a full disk degrades to recomputation,
// not to a poisoned run).
func (c *LayeredCache) Put(res CellResult) error {
	var first error
	for _, layer := range c.Layers {
		if err := layer.Put(res); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CacheCounters is a snapshot of a DiskCache's access statistics
// since it was opened: how often the campaign was served from disk,
// how often it had to simulate, and how much result data moved.
type CacheCounters struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	BytesRead    uint64 `json:"bytes_read"`
	Puts         uint64 `json:"puts"`
	BytesWritten uint64 `json:"bytes_written"`
	// Corrupt counts entries that failed to decode and were
	// quarantined to <key>.corrupt (each also counts as a miss).
	Corrupt uint64 `json:"corrupt,omitempty"`
}

// DiskCache persists cell results under one directory, one JSON file
// per fingerprint key. It is safe for concurrent use by the worker
// pool: writes go through a temp file and an atomic rename, and a
// torn or corrupt entry reads as a miss, never as bad data.
type DiskCache struct {
	dir string

	// OnDegrade, when non-nil, observes read errors and corrupt-entry
	// quarantines (ops "cache.get", "cache.corrupt"). Set before the
	// cache is shared across goroutines.
	OnDegrade func(Degradation)
	// Faults, when non-nil, arms the cache fault-injection points
	// (cache.get.error, cache.get.corrupt, cache.put.error).
	Faults *fault.Injector

	hits         atomic.Uint64
	misses       atomic.Uint64
	bytesRead    atomic.Uint64
	puts         atomic.Uint64
	bytesWritten atomic.Uint64
	corrupt      atomic.Uint64
}

// Counters returns the access statistics accumulated since the cache
// was opened. Safe to call concurrently with Get/Put (a metrics
// endpoint scrapes it mid-run).
func (c *DiskCache) Counters() CacheCounters {
	return CacheCounters{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		BytesRead:    c.bytesRead.Load(),
		Puts:         c.puts.Load(),
		BytesWritten: c.bytesWritten.Load(),
		Corrupt:      c.corrupt.Load(),
	}
}

// OpenDiskCache creates (if needed) and opens a cache directory.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: open cache: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// Dir returns the cache directory.
func (c *DiskCache) Dir() string { return c.dir }

func (c *DiskCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached result for key, if present and intact. A
// corrupt entry is quarantined — renamed to <key>.corrupt so the
// evidence survives for inspection instead of being overwritten by
// the resimulated cell — counted, degraded, and served as a miss.
func (c *DiskCache) Get(key string) (CellResult, bool) {
	data, err := os.ReadFile(c.path(key))
	if ferr := c.Faults.FireErr(fault.CacheGetError, key); ferr != nil {
		err = ferr
	}
	if err != nil {
		c.misses.Add(1)
		if !os.IsNotExist(err) {
			c.degrade(Degradation{Op: "cache.get", Key: key, Err: err})
		}
		return CellResult{}, false
	}
	if c.Faults.Fire(fault.CacheGetCorrupt, key) {
		data = data[:len(data)/2] // torn mid-record
	}
	var res CellResult
	if err := json.Unmarshal(data, &res); err != nil || res.Key != key {
		// A torn or corrupt entry reads as a miss; quarantine it so
		// the resimulation does not destroy the evidence.
		c.misses.Add(1)
		c.corrupt.Add(1)
		if err == nil {
			err = ioErrorf("campaign: cache entry %s holds key %s", key, res.Key)
		}
		c.degrade(Degradation{Op: "cache.corrupt", Key: key, Err: quarantine(c.path(key), err)})
		return CellResult{}, false
	}
	c.hits.Add(1)
	c.bytesRead.Add(uint64(len(data)))
	return res, true
}

func (c *DiskCache) degrade(d Degradation) {
	if c.OnDegrade != nil {
		c.OnDegrade(d)
	}
}

// Put stores a successful result under its key.
func (c *DiskCache) Put(res CellResult) error {
	if res.Key == "" {
		return errModelf("campaign: cache entry without key")
	}
	if res.Err != "" {
		return errModelf("campaign: refusing to cache failed cell %s", res.Key)
	}
	if err := c.Faults.FireErr(fault.CachePutError, res.Key); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := writeAtomic(c.path(res.Key), data); err != nil {
		return ioErrorf("campaign: cache write: %v", err)
	}
	c.puts.Add(1)
	c.bytesWritten.Add(uint64(len(data)))
	return nil
}

// Entry describes one cached cell file.
type Entry struct {
	Key     string
	ModTime time.Time
	Size    int64
}

// Entries lists the cached cells with their file metadata, sorted by
// key. Unreadable entries are skipped (a concurrent writer's temp
// files never match the .json suffix, so only real cells appear).
func (c *DiskCache) Entries() ([]Entry, error) {
	keys, err := c.Keys()
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(keys))
	for _, k := range keys {
		info, err := os.Stat(c.path(k))
		if err != nil {
			continue
		}
		out = append(out, Entry{Key: k, ModTime: info.ModTime(), Size: info.Size()})
	}
	return out, nil
}

// Remove deletes one cached cell. Removing a missing key is not an
// error (a concurrent prune may have won the race).
func (c *DiskCache) Remove(key string) error {
	if err := os.Remove(c.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("campaign: remove cache entry: %w", err)
	}
	return nil
}

// PruneOptions selects which cached cells to delete.
type PruneOptions struct {
	// OlderThan removes entries whose file modification time is more
	// than this duration before Now. Zero disables the age criterion.
	OlderThan time.Duration
	// Keep, when non-nil, removes every entry whose key is not one of
	// the plan's cell fingerprints — cache GC down to exactly the
	// cells a spec can still reach.
	Keep *Plan
	// Now anchors the age comparison; the zero value means
	// time.Now().
	Now time.Time
	// DryRun reports what would be removed without deleting anything.
	DryRun bool
}

// PruneResult reports what Prune did (or, for a dry run, would do).
type PruneResult struct {
	Removed []Entry
	Kept    int
	Bytes   int64 // total size of removed entries
}

// Prune deletes cached cells per opts: a cell is removed when it is
// older than the age limit or unreachable from the keep-plan,
// whichever criteria are enabled.
func Prune(c *DiskCache, opts PruneOptions) (PruneResult, error) {
	if opts.OlderThan < 0 {
		return PruneResult{}, fmt.Errorf("campaign: negative prune age %v", opts.OlderThan)
	}
	if opts.OlderThan == 0 && opts.Keep == nil {
		return PruneResult{}, fmt.Errorf("campaign: prune needs an age limit or a keep plan")
	}
	entries, err := c.Entries()
	if err != nil {
		return PruneResult{}, err
	}
	now := opts.Now
	if now.IsZero() {
		now = time.Now()
	}
	var reachable map[string]bool
	if opts.Keep != nil {
		reachable = make(map[string]bool, len(opts.Keep.Cells))
		for _, cell := range opts.Keep.Cells {
			reachable[cell.Key] = true
		}
	}
	var res PruneResult
	for _, e := range entries {
		tooOld := opts.OlderThan > 0 && now.Sub(e.ModTime) > opts.OlderThan
		unreachable := reachable != nil && !reachable[e.Key]
		if !tooOld && !unreachable {
			res.Kept++
			continue
		}
		if !opts.DryRun {
			if err := c.Remove(e.Key); err != nil {
				return res, err
			}
		}
		res.Removed = append(res.Removed, e)
		res.Bytes += e.Size
	}
	return res, nil
}

// Keys lists the cached fingerprints, sorted.
func (c *DiskCache) Keys() ([]string, error) {
	keys, err := listKeys(c.dir, ".json")
	if err != nil {
		return nil, fmt.Errorf("campaign: list cache: %w", err)
	}
	return keys, nil
}

// writeAtomic writes data to path through a temp file in the same
// directory and a rename, so a reader or a killed run never sees a torn
// file. The temp file's dot prefix keeps it out of listKeys.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// quarantine renames the corrupt entry at path to <key>.corrupt, so
// the re-simulation that replaces it does not destroy the evidence,
// and returns err, noting a failed rename.
func quarantine(path string, err error) error {
	if qerr := os.Rename(path, strings.TrimSuffix(path, filepath.Ext(path))+".corrupt"); qerr != nil {
		return ioErrorf("%v (quarantine failed: %v)", err, qerr)
	}
	return err
}

// listKeys returns, sorted, the keys of the entries in dir named
// <key><suffix>; dot files (a writer's temp files) never match.
func listKeys(dir, suffix string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, suffix) {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, suffix))
	}
	sort.Strings(keys)
	return keys, nil
}
