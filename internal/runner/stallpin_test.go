package runner

import (
	"fmt"
	"strings"
	"testing"

	"microlib/internal/cache"
	"microlib/internal/workload"
)

// stallPinCounts is every counter the store-stall machine's host-time
// shortcuts could disturb: cycles, each cache's refusals, the core's
// retries, L2 write-backs (eager writeback's output) and the
// mechanism's hardware-table activity (EWB scans, aux probes).
type stallPinCounts struct {
	Cycles                uint64
	RetryPort, RetryStall uint64
	RetryMSHR             uint64
	L1D, L1I, L2          rejects
	L2WriteBack           uint64
	HW                    string // "label:reads/writes" per table
}

// rejects is one cache's refusal counters, kept local so the pin
// table can use short unkeyed literals.
type rejects struct{ Port, Stall, MSHR uint64 }

func rejectsOf(s cache.Stats) rejects { return rejects{s.RejectPort, s.RejectStall, s.RejectMSHR} }

func (r rejects) String() string { return fmt.Sprintf("rejects{%d, %d, %d}", r.Port, r.Stall, r.MSHR) }

// storeStallPins holds counts recorded from a simulator that walked
// every L2 set on each eager-writeback drain and stepped every OoO
// cycle the idle-skip gate declined. The dirty-LRU drain index and
// the replayed quiet cycle are host-time shortcuts that must not move
// a single counter, so these values are never regenerated: a mismatch
// is a bug in a shortcut.
var storeStallPins = map[string]stallPinCounts{
	"stall-heavy/Base/inorder": {406931, 3772, 1839, 6933, rejects{2990, 1458, 5507}, rejects{0, 0, 0}, rejects{0, 0, 0}, 9, ""},
	"stall-heavy/Base/ooo":     {407679, 270252, 10766, 327238, rejects{212834, 8551, 259283}, rejects{17, 0, 0}, rejects{0, 36, 0}, 9, ""},
	"stall-heavy/EWB/inorder":  {444577, 3772, 1839, 10151, rejects{2990, 1458, 7907}, rejects{0, 0, 0}, rejects{0, 0, 0}, 0, "ewb-scanptr:1736/2234"},
	"stall-heavy/EWB/ooo":      {445029, 295947, 10768, 358579, rejects{231000, 8553, 281091}, rejects{17, 0, 0}, rejects{0, 36, 0}, 0, "ewb-scanptr:1738/2226"},
	"stall-heavy/VC/inorder":   {409280, 3772, 1839, 6933, rejects{2990, 1458, 5507}, rejects{0, 0, 0}, rejects{0, 0, 0}, 9, "victim-cache:11101/4135"},
	"stall-heavy/VC/ooo":       {409910, 271728, 10766, 329057, rejects{213998, 8551, 260730}, rejects{17, 0, 0}, rejects{0, 36, 0}, 9, "victim-cache:333225/4135"},
	"mcf/Base/inorder":         {88652, 914, 122, 1060, rejects{641, 113, 756}, rejects{0, 0, 0}, rejects{0, 0, 0}, 0, ""},
	"mcf/Base/ooo":             {86957, 84882, 5988, 62595, rejects{67640, 4792, 47842}, rejects{172, 0, 0}, rejects{4, 4, 0}, 0, ""},
	"mcf/EWB/inorder":          {91806, 914, 122, 1244, rejects{641, 113, 876}, rejects{0, 0, 0}, rejects{0, 0, 0}, 0, "ewb-scanptr:358/561"},
	"mcf/EWB/ooo":              {89969, 88467, 6006, 65331, rejects{70299, 4810, 49782}, rejects{172, 0, 0}, rejects{3, 5, 0}, 0, "ewb-scanptr:351/498"},
	"mcf/VC/inorder":           {86549, 848, 115, 992, rejects{593, 106, 700}, rejects{0, 0, 0}, rejects{0, 0, 0}, 0, "victim-cache:3107/2085"},
	"mcf/VC/ooo":               {84309, 83653, 5549, 60834, rejects{66693, 4426, 46390}, rejects{172, 0, 0}, rejects{5, 2, 0}, 0, "victim-cache:62768/2095"},

	// The other aux probers, recorded before their cores replayed
	// quiet cycles (every probe stepped one by one).
	"stall-heavy/FVC/inorder":    {406931, 3772, 1839, 6933, rejects{2990, 1458, 5507}, rejects{0, 0, 0}, rejects{0, 0, 0}, 9, "fvc:11101/0"},
	"stall-heavy/FVC/ooo":        {407679, 270252, 10766, 327238, rejects{212834, 8551, 259283}, rejects{17, 0, 0}, rejects{0, 36, 0}, 9, "fvc:331406/0"},
	"stall-heavy/Markov/inorder": {407367, 3801, 1839, 7211, rejects{3018, 1458, 5774}, rejects{0, 0, 0}, rejects{0, 0, 0}, 9, "markov-table:4168/4167 markov-buffer:30/30"},
	"stall-heavy/Markov/ooo":     {408107, 270653, 10784, 327622, rejects{213219, 8569, 259653}, rejects{17, 0, 0}, rejects{0, 36, 0}, 9, "markov-table:4168/4167 markov-buffer:30/30"},
	"stall-heavy/TKVC/inorder":   {409674, 3772, 1839, 6933, rejects{2990, 1458, 5507}, rejects{0, 0, 0}, rejects{0, 0, 0}, 9, "victim-cache:11101/1038 tkvc-decay:4135/4135"},
	"stall-heavy/TKVC/ooo":       {410288, 271979, 10766, 329352, rejects{214206, 8551, 260973}, rejects{17, 0, 0}, rejects{0, 36, 0}, 9, "victim-cache:333520/1037 tkvc-decay:4135/4135"},
	"mcf/FVC/inorder":            {88366, 907, 122, 1052, rejects{635, 113, 748}, rejects{0, 0, 0}, rejects{0, 0, 0}, 0, "fvc:3167/22"},
	"mcf/FVC/ooo":                {86656, 84596, 5943, 62325, rejects{67342, 4745, 47584}, rejects{172, 0, 0}, rejects{4, 4, 0}, 0, "fvc:64364/22"},
	"mcf/Markov/inorder":         {98982, 2003, 84, 10381, rejects{1640, 77, 9424}, rejects{0, 0, 0}, rejects{0, 0, 0}, 0, "markov-table:1608/1607 markov-buffer:2223/1729"},
	"mcf/Markov/ooo":             {98790, 114684, 5349, 74420, rejects{95015, 4176, 58350}, rejects{167, 0, 0}, rejects{0, 2, 0}, 0, "markov-table:1623/1622 markov-buffer:2258/1771"},
	"mcf/TKVC/inorder":           {86684, 854, 117, 996, rejects{597, 108, 704}, rejects{0, 0, 0}, rejects{0, 0, 0}, 0, "victim-cache:3111/1254 tkvc-decay:2085/2085"},
	"mcf/TKVC/ooo":               {84587, 83735, 5548, 61146, rejects{66866, 4417, 46483}, rejects{173, 0, 0}, rejects{6, 3, 0}, 0, "victim-cache:63171/1289 tkvc-decay:2093/2093"},
}

// TestStoreStallPinnedCounts runs the perfbench store-stall machine —
// a 1 KB direct-mapped L1D with one port, one MSHR and one read per
// MSHR — on the stall-heavy profile and on mcf, for Base, EWB and
// every deterministic aux prober (VC, FVC, Markov, TKVC) on both host
// cores, and pins the refusal, retry, write-back and hardware-table
// counters exactly.
func TestStoreStallPinnedCounts(t *testing.T) {
	stallHeavy, err := NewProfileWorkload(workload.Profile{
		Name:      "stall-heavy",
		LoadFrac:  0.10,
		StoreFrac: 0.50,
		BlockLen:  12,
		CodeKB:    4,
		Patterns:  []workload.PatternSpec{{Kind: workload.PatRand, Size: 8 << 20}},
		Phases:    []workload.PhaseSpec{{Len: 100_000, Weights: []float64{1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var recorded strings.Builder
	for _, bench := range []string{"stall-heavy", "mcf"} {
		for _, mech := range []string{"Base", "EWB", "VC", "FVC", "Markov", "TKVC"} {
			for _, inorder := range []bool{true, false} {
				core := "ooo"
				if inorder {
					core = "inorder"
				}
				key := bench + "/" + mech + "/" + core
				opts := DefaultOptions(bench, mech)
				if bench == "stall-heavy" {
					opts.Workload = stallHeavy
				}
				opts.Hier.L1D.Size = 1 << 10
				opts.Hier.L1D.Assoc = 1
				opts.Hier.L1D.Ports = 1
				opts.Hier.L1D.MSHRs = 1
				opts.Hier.L1D.ReadsPerMSHR = 1
				opts.Warmup = 1_500
				opts.Insts = 6_000
				opts.Seed = 1
				opts.InOrder = inorder
				res, err := Run(opts)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := stallPinCounts{
					Cycles:      res.CPU.Cycles,
					RetryPort:   res.CPU.RetryPort,
					RetryStall:  res.CPU.RetryStall,
					RetryMSHR:   res.CPU.RetryMSHR,
					L1D:         rejectsOf(res.L1D),
					L1I:         rejectsOf(res.L1I),
					L2:          rejectsOf(res.L2),
					L2WriteBack: res.L2.WriteBack,
				}
				var hw []string
				for _, tb := range res.Hardware {
					hw = append(hw, fmt.Sprintf("%s:%d/%d", tb.Label, tb.Reads, tb.Writes))
				}
				got.HW = strings.Join(hw, " ")
				fmt.Fprintf(&recorded, "\t%q: {%d, %d, %d, %d, %s, %s, %s, %d, %q},\n",
					key, got.Cycles, got.RetryPort, got.RetryStall, got.RetryMSHR,
					got.L1D, got.L1I, got.L2, got.L2WriteBack, got.HW)
				if want, ok := storeStallPins[key]; !ok || got != want {
					t.Errorf("%s:\n got %+v\nwant %+v", key, got, want)
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("measured:\n%s", recorded.String())
	}
}
