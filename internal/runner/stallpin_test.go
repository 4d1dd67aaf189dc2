package runner

import (
	"context"
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

// rankGridPinCounts is the host-independent work of one rank-grid
// cell: engine events executed over the whole run (warm-up included)
// against the instructions committed, and the measured L1D refusals
// against the measured L1D accesses. events/inst and rejects/access
// are the two ratios perfbench's traced rank-grid reports
// (sim.events_per_inst, l1d.refused_frac); pinning the counts pins
// both exactly.
type rankGridPinCounts struct {
	Events, Insts uint64
	L1D           rejects
	L1DAccesses   uint64
}

// rankGridPins holds counts recorded before the runner's entry points
// were folded into one build, capture and restore path. The rank-grid
// machine has no host-time shortcut of its own to excuse a change:
// these move only with an intended model change, which must say so.
var rankGridPins = map[string]rankGridPinCounts{
	"gzip/Base/inorder/1": {12380, 40000, rejects{0, 92, 0}, 8891},
	"gzip/Base/inorder/2": {10960, 40000, rejects{0, 61, 0}, 8125},
	"gzip/Base/ooo/1":     {44771, 40000, rejects{15, 1423, 0}, 8891},
	"gzip/Base/ooo/2":     {44132, 40000, rejects{6, 1024, 0}, 8125},
	"gzip/SP/inorder/1":   {12463, 40000, rejects{0, 90, 0}, 8891},
	"gzip/SP/inorder/2":   {11007, 40000, rejects{0, 61, 0}, 8125},
	"gzip/SP/ooo/1":       {44877, 40000, rejects{15, 1349, 0}, 8891},
	"gzip/SP/ooo/2":       {44191, 40000, rejects{6, 981, 0}, 8125},
	"gzip/GHB/inorder/1":  {12431, 40000, rejects{0, 90, 0}, 8891},
	"gzip/GHB/inorder/2":  {10994, 40000, rejects{0, 61, 0}, 8125},
	"gzip/GHB/ooo/1":      {44821, 40000, rejects{15, 1376, 0}, 8891},
	"gzip/GHB/ooo/2":      {44183, 40000, rejects{6, 1007, 0}, 8125},
	"gzip/VC/inorder/1":   {12504, 40000, rejects{0, 84, 0}, 8891},
	"gzip/VC/inorder/2":   {10982, 40000, rejects{0, 53, 0}, 8125},
	"gzip/VC/ooo/1":       {44884, 40000, rejects{10, 1264, 0}, 8891},
	"gzip/VC/ooo/2":       {44163, 40000, rejects{5, 936, 0}, 8125},
	"mcf/Base/inorder/1":  {19576, 40000, rejects{0, 192, 0}, 10526},
	"mcf/Base/inorder/2":  {19902, 40000, rejects{0, 185, 0}, 9520},
	"mcf/Base/ooo/1":      {50025, 40000, rejects{134, 2436, 1186}, 10525},
	"mcf/Base/ooo/2":      {51463, 40000, rejects{231, 3097, 6603}, 9509},
	"mcf/SP/inorder/1":    {19576, 40000, rejects{0, 192, 0}, 10526},
	"mcf/SP/inorder/2":    {19902, 40000, rejects{0, 185, 0}, 9520},
	"mcf/SP/ooo/1":        {50025, 40000, rejects{134, 2436, 1186}, 10525},
	"mcf/SP/ooo/2":        {51463, 40000, rejects{231, 3097, 6603}, 9509},
	"mcf/GHB/inorder/1":   {19576, 40000, rejects{0, 192, 0}, 10526},
	"mcf/GHB/inorder/2":   {19914, 40000, rejects{0, 185, 0}, 9520},
	"mcf/GHB/ooo/1":       {50025, 40000, rejects{134, 2436, 1186}, 10525},
	"mcf/GHB/ooo/2":       {51528, 40000, rejects{231, 3097, 6603}, 9509},
	"mcf/VC/inorder/1":    {20281, 40000, rejects{0, 186, 0}, 10526},
	"mcf/VC/inorder/2":    {20716, 40000, rejects{0, 180, 0}, 9520},
	"mcf/VC/ooo/1":        {51054, 40000, rejects{135, 2384, 1186}, 10525},
	"mcf/VC/ooo/2":        {52374, 40000, rejects{232, 2982, 6440}, 9509},
	"swim/Base/inorder/1": {28958, 40000, rejects{0, 485, 0}, 13069},
	"swim/Base/inorder/2": {28731, 40000, rejects{0, 628, 0}, 12812},
	"swim/Base/ooo/1":     {58265, 40000, rejects{350, 8853, 1550}, 13067},
	"swim/Base/ooo/2":     {57402, 40000, rejects{113, 7395, 972}, 12809},
	"swim/SP/inorder/1":   {31909, 40000, rejects{0, 483, 0}, 13069},
	"swim/SP/inorder/2":   {31598, 40000, rejects{0, 628, 0}, 12812},
	"swim/SP/ooo/1":       {59015, 40000, rejects{412, 9085, 1337}, 13068},
	"swim/SP/ooo/2":       {57917, 40000, rejects{135, 7316, 1049}, 12809},
	"swim/GHB/inorder/1":  {32334, 40000, rejects{0, 481, 0}, 13069},
	"swim/GHB/inorder/2":  {31830, 40000, rejects{0, 628, 0}, 12812},
	"swim/GHB/ooo/1":      {73534, 40000, rejects{641, 8767, 1398}, 13068},
	"swim/GHB/ooo/2":      {72273, 40000, rejects{95, 7829, 309}, 12807},
	"swim/VC/inorder/1":   {30488, 40000, rejects{0, 478, 0}, 13069},
	"swim/VC/inorder/2":   {30390, 40000, rejects{0, 619, 0}, 12812},
	"swim/VC/ooo/1":       {60247, 40000, rejects{326, 8610, 1641}, 13065},
	"swim/VC/ooo/2":       {59380, 40000, rejects{119, 7301, 950}, 12809},
}

// TestRankGridPinnedCounts runs the perfbench rank-grid machine — the
// Table 1 hierarchy with SDRAM, 10k warm-up and 30k measured
// instructions — on three benchmarks at two seeds for Base, SP, GHB and VC on both
// host cores, and pins engine events, committed instructions and the
// L1D's refusals and accesses exactly. TK and DBCP are left out:
// their map-order state makes their counts a matter of luck.
func TestRankGridPinnedCounts(t *testing.T) {
	var recorded strings.Builder
	for _, bench := range []string{"gzip", "mcf", "swim"} {
		for _, mech := range []string{"Base", "SP", "GHB", "VC"} {
			for _, inorder := range []bool{true, false} {
				for _, seed := range []uint64{1, 2} {
					core := "ooo"
					if inorder {
						core = "inorder"
					}
					key := fmt.Sprintf("%s/%s/%s/%d", bench, mech, core, seed)
					opts := DefaultOptions(bench, mech)
					opts.Warmup = 10_000
					opts.Insts = 30_000
					opts.Seed = seed
					opts.InOrder = inorder
					a := new(Arena)
					res, err := a.Run(context.Background(), opts)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					_, events := a.m.eng.Stats()
					got := rankGridPinCounts{
						Events:      events,
						Insts:       res.CPU.Insts,
						L1D:         rejectsOf(res.L1D),
						L1DAccesses: res.L1D.Accesses,
					}
					fmt.Fprintf(&recorded, "\t%q: {%d, %d, %s, %d},\n",
						key, got.Events, got.Insts, got.L1D, got.L1DAccesses)
					if want, ok := rankGridPins[key]; !ok || got != want {
						t.Errorf("%s:\n got %+v\nwant %+v", key, got, want)
					}
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("measured:\n%s", recorded.String())
	}
}
