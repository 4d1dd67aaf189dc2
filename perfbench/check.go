package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"

	"microlib/internal/campaign"
	"microlib/internal/core"
	"microlib/internal/runner"
)

// record is the simulated part of a cell result: everything the model
// computed, nothing about the host or the cache key.
type record struct {
	Cycles            uint64
	Insts             uint64
	IPC               float64
	L1DMissRatio      float64
	L2MissRatio       float64
	PrefetchIssued    uint64
	PrefetchUseful    uint64
	AvgReadLatency    float64
	Hardware          []core.HWTable
	BaseCacheAccesses uint64
	Refusals          campaign.RefusalStats
}

func recordOf(r campaign.CellResult) record {
	return record{
		Cycles: r.Cycles, Insts: r.Insts, IPC: r.IPC,
		L1DMissRatio: r.L1DMissRatio, L2MissRatio: r.L2MissRatio,
		PrefetchIssued: r.PrefetchIssued, PrefetchUseful: r.PrefetchUseful,
		AvgReadLatency: r.AvgReadLatency, Hardware: r.Hardware,
		BaseCacheAccesses: r.BaseCacheAccesses, Refusals: r.Refusals,
	}
}

// runnerRecord projects a runner result the way the campaign scheduler
// does when it stores a cell, so cells the benchmark simulates itself
// are checked against the same references.
func runnerRecord(full runner.Result) record {
	hw := full.Hardware
	if hw == nil {
		hw = []core.HWTable{}
	}
	return record{
		Cycles: full.CPU.Cycles, Insts: full.CPU.Insts, IPC: full.IPC,
		L1DMissRatio:      full.L1D.MissRatio(),
		L2MissRatio:       full.L2.MissRatio(),
		PrefetchIssued:    full.L1D.PrefetchIssued + full.L2.PrefetchIssued,
		PrefetchUseful:    full.L1D.PrefetchUseful + full.L2.PrefetchUseful,
		AvgReadLatency:    full.Mem.AvgReadLatency(),
		Hardware:          hw,
		BaseCacheAccesses: full.BaseCacheAccesses,
		Refusals: campaign.RefusalStats{
			RejectPort:  full.L1D.RejectPort + full.L1I.RejectPort + full.L2.RejectPort,
			RejectStall: full.L1D.RejectStall + full.L1I.RejectStall + full.L2.RejectStall,
			RejectMSHR:  full.L1D.RejectMSHR + full.L1I.RejectMSHR + full.L2.RejectMSHR,
			RetryPort:   full.CPU.RetryPort,
			RetryStall:  full.CPU.RetryStall,
			RetryMSHR:   full.CPU.RetryMSHR,
		},
	}
}

// digest is a short content hash of a record. JSON encodes floats in
// their shortest round-trip form, so equal digests mean bit-equal
// records.
func (r record) digest() string {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // a record has no unencodable fields
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6])
}

// refs are the recorded digests of one workload: per generator seed,
// one digest per cell label. An empty digest marks a cell that has no
// reference because its mechanism was nondeterministic while the
// references were recorded.
type refs struct {
	Workload string `json:"workload"`
	// Runs is how many times every cell was simulated while recording.
	Runs int `json:"runs"`
	// Cold marks references recorded with warm-state checkpointing off.
	Cold bool `json:"cold"`
	// Nondeterministic lists the mechanisms with at least one cell
	// whose record differed between the recording runs; none of their
	// cells is checked. Varied names those cells.
	Nondeterministic []string            `json:"nondeterministic"`
	Varied           []string            `json:"varied"`
	Labels           []string            `json:"labels"`
	Digests          map[string][]string `json:"digests"`

	index map[string]int
}

func refsPath(name string) string { return filepath.Join(benchDir, "refs", name+".json") }

func loadRefs(name string) (*refs, error) {
	data, err := os.ReadFile(refsPath(name))
	if err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	var r refs
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("references %s: %w", name, err)
	}
	r.index = make(map[string]int, len(r.Labels))
	for i, l := range r.Labels {
		r.index[l] = i
	}
	for seed, ds := range r.Digests {
		if len(ds) != len(r.Labels) {
			return nil, fmt.Errorf("references %s: seed %s has %d digests for %d labels", name, seed, len(ds), len(r.Labels))
		}
	}
	return &r, nil
}

// verdict is the outcome of checking one cell.
type verdict int

const (
	verified   verdict = iota // digest equals the reference
	unverified                // no reference: nondeterministic mechanism
	failed                    // errored, mismatched, or no reference without cause
)

// check compares one cell's digest ("" when the cell failed to run)
// with its reference.
func (r *refs) check(seed uint64, label, mech, digest string) (verdict, string) {
	if digest == "" {
		return failed, "no result"
	}
	i, ok := r.index[label]
	ds := r.Digests[strconv.FormatUint(seed, 10)]
	if !ok || ds == nil {
		return failed, "no reference recorded"
	}
	want := ds[i]
	if want == "" {
		if r.nondeterministic(mech) {
			return unverified, "nondeterministic mechanism " + mech
		}
		return failed, "empty reference"
	}
	if want != digest {
		return failed, fmt.Sprintf("digest %s, reference %s", digest, want)
	}
	return verified, ""
}

func (r *refs) nondeterministic(mech string) bool {
	for _, m := range r.Nondeterministic {
		if m == mech {
			return true
		}
	}
	return false
}

// tally accumulates cell verdicts over a run.
type tally struct {
	attempted, verified, unverified, failed int
	// failures and unchecked name the offending cells (first few).
	failures  []string
	unchecked map[string]bool
}

func (t *tally) add(v verdict, name, why string) {
	t.attempted++
	switch v {
	case verified:
		t.verified++
	case unverified:
		t.unverified++
		if t.unchecked == nil {
			t.unchecked = map[string]bool{}
		}
		t.unchecked[name] = true
	case failed:
		t.failed++
		if len(t.failures) < 20 {
			t.failures = append(t.failures, name+": "+why)
		}
	}
}

func (t *tally) report() map[string]any {
	unchecked := make([]string, 0, len(t.unchecked))
	for n := range t.unchecked {
		unchecked = append(unchecked, n)
	}
	sort.Strings(unchecked)
	return map[string]any{
		"attempted": t.attempted, "verified": t.verified,
		"unverified": t.unverified, "failed": t.failed,
		"failures": t.failures, "unverified_cells": unchecked,
	}
}

// recordRefs simulates every pool slot of one workload (all when name
// is empty) runs times, cold, and writes the reference file. A
// mechanism any of whose cells differs between runs is marked
// nondeterministic and gets no references.
func recordRefs(ctx context.Context, name string, runs int) error {
	if name != "" {
		if _, err := lookupWorkload(name); err != nil {
			return err
		}
	}
	for _, w := range workloads {
		if name != "" && w.Name != name {
			continue
		}
		if err := recordWorkload(ctx, w, runs); err != nil {
			return err
		}
	}
	return nil
}

func recordWorkload(ctx context.Context, w workloadDef, runs int) error {
	r := refs{Workload: w.Name, Runs: runs, Cold: true, Digests: map[string][]string{}}
	varied := map[string]string{}    // cellKey → mechanism
	labelMech := map[string]string{} // label → mechanism
	for slot := int64(0); slot < seedPool; slot++ {
		spec, err := w.spec(slot)
		if err != nil {
			return err
		}
		plan, err := campaign.NewPlan(spec)
		if err != nil {
			return err
		}
		if r.Labels == nil {
			r.Labels = labelsOf(plan, spec.Seeds[0])
		}
		first := map[string]string{}
		for run := 0; run < runs; run++ {
			dir, err := os.MkdirTemp(outDir(), "record-")
			if err != nil {
				return err
			}
			got, err := executeForDigests(ctx, spec, plan, dir, campaign.RunConfig{Workers: min(2, runtime.NumCPU()), NoWarm: true})
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
			for key, d := range got {
				if run == 0 {
					first[key] = d
				} else if first[key] != d {
					varied[key] = ""
				}
			}
			fmt.Fprintf(os.Stderr, "record %s slot %d run %d: %d cells\n", w.Name, slot, run, len(got))
		}
		for _, c := range plan.Cells {
			key, label := cellKey(plan, c), cellLabel(plan, c)
			if first[key] == "" {
				return fmt.Errorf("record %s: cell %s produced no result", w.Name, key)
			}
			if _, ok := varied[key]; ok {
				varied[key] = c.Mech()
			}
			labelMech[label] = c.Mech()
			seed := strconv.FormatUint(c.Seed(), 10)
			if r.Digests[seed] == nil {
				r.Digests[seed] = make([]string, len(r.Labels))
			}
			i := indexOf(r.Labels, label)
			if i < 0 {
				return fmt.Errorf("record %s: cell %s has a label the first seed lacks", w.Name, key)
			}
			r.Digests[seed][i] = first[key]
		}
	}
	nondet := map[string]bool{}
	r.Varied = []string{}
	for key, mech := range varied {
		nondet[mech] = true
		r.Varied = append(r.Varied, key)
	}
	sort.Strings(r.Varied)
	r.Nondeterministic = []string{}
	for m := range nondet {
		r.Nondeterministic = append(r.Nondeterministic, m)
	}
	sort.Strings(r.Nondeterministic)
	for _, ds := range r.Digests {
		for i, l := range r.Labels {
			if nondet[labelMech[l]] {
				ds[i] = ""
			}
		}
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(refsPath(w.Name)), 0o755); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "record %s: nondeterministic %v (%d cells varied)\n", w.Name, r.Nondeterministic, len(r.Varied))
	return os.WriteFile(refsPath(w.Name), append(data, '\n'), 0o644)
}

// cellKey names a cell with its seed, for messages and the varied list.
func cellKey(plan *campaign.Plan, c campaign.Cell) string {
	return "seed=" + strconv.FormatUint(c.Seed(), 10) + " " + cellLabel(plan, c)
}

func labelsOf(plan *campaign.Plan, seed uint64) []string {
	var ls []string
	for _, c := range plan.Cells {
		if c.Seed() == seed {
			ls = append(ls, cellLabel(plan, c))
		}
	}
	return ls
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// executeForDigests runs a campaign with a fresh result cache in dir
// and returns each cell's digest ("" for a failed cell) by cellKey.
func executeForDigests(ctx context.Context, spec campaign.Spec, plan *campaign.Plan, dir string, cfg campaign.RunConfig) (map[string]string, error) {
	cfg.CacheDir = filepath.Join(dir, "cache")
	if _, err := campaign.Execute(ctx, spec, cfg); err != nil {
		return nil, err
	}
	return readDigests(plan, cfg.CacheDir)
}

// readDigests reads every plan cell back from a campaign's result
// cache.
func readDigests(plan *campaign.Plan, cacheDir string) (map[string]string, error) {
	cache, err := campaign.OpenDiskCache(cacheDir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(plan.Cells))
	for _, c := range plan.Cells {
		res, ok := cache.Get(c.Key)
		d := ""
		if ok && res.Err == "" {
			d = recordOf(res).digest()
		}
		out[cellKey(plan, c)] = d
	}
	return out, nil
}
