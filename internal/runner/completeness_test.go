package runner

import (
	"reflect"
	"testing"

	"microlib/internal/bus"
	"microlib/internal/cache"
	"microlib/internal/cpu"
	"microlib/internal/hier"
	"microlib/internal/mech/cdp"
	"microlib/internal/mech/dbcp"
	"microlib/internal/mech/ewb"
	"microlib/internal/mech/fvc"
	"microlib/internal/mech/ghb"
	"microlib/internal/mech/markov"
	"microlib/internal/mech/sp"
	"microlib/internal/mech/tcp"
	"microlib/internal/mech/tk"
	"microlib/internal/mech/tp"
	"microlib/internal/mech/vc"
	"microlib/internal/mem"
	"microlib/internal/prng"
	"microlib/internal/sim"
	"microlib/internal/trace"
	"microlib/internal/workload"
)

// snapshotCoverage is the warm-state checkpointing completeness
// ledger, in the style of the cfgreg wiring gate: every field of every
// stateful component is either serialized — captured in the
// component's snapshot state, directly or reconstructibly (a map
// rebuilt from its serialized ring, a count recomputed from serialized
// entries) — or exempted with the reason it need not survive a
// snapshot. A field added to a component without a decision here fails
// TestSnapshotCompleteness, loudly, before an incomplete checkpoint
// can silently break bit-identity.
var snapshotCoverage = []struct {
	typ        any
	serialized []string
	exempt     map[string]string
}{
	{
		typ:        sim.Engine{},
		serialized: []string{"now", "seq", "base", "ring", "occ", "ringCount", "overflow", "scheduled", "executed"},
		exempt: map[string]string{
			"promote": "batch-promotion scratch, empty between advances",
			"free":    "event-node freelist: an allocation pool, not simulated state",
		},
	},
	{
		typ: cache.Cache{},
		serialized: []string{"sets", "useTick", "stallUntil", "portCycle", "portsUsed",
			"mshrs", "mshrsIn", "pq", "pqHead", "pqRetryArm", "stats"},
		exempt: map[string]string{
			"cfg":              "configuration, reproduced by reconstruction",
			"eng":              "wiring, reproduced by reconstruction",
			"backend":          "wiring, reproduced by reconstruction",
			"setMask":          "derived from configuration at construction",
			"lineShift":        "derived from configuration at construction",
			"prefetchAsDemand": "configuration flag applied at machine build",
			"accessObs":        "observer wiring, re-attached by the mechanism at construction",
			"probers":          "observer wiring, re-attached by the mechanism at construction",
			"evictObs":         "observer wiring, re-attached by the mechanism at construction",
			"fillObs":          "observer wiring, re-attached by the mechanism at construction",
			"missObs":          "observer wiring, re-attached by the mechanism at construction",
			"checker":          "debug invariant checker, not armed in checkpointed runs",
			"dirtyLRU":         "derived index over the serialized lines, rebuilt by SetState",
			"drainBuf":         "DrainDirtyLRU result scratch, reused between drains",
		},
	},
	{
		typ:        bus.Bus{},
		serialized: []string{"freeAt", "transfers", "busyCycles", "waitCycles"},
		exempt: map[string]string{
			"name":              "label, reproduced by reconstruction",
			"widthBytes":        "configuration, reproduced by reconstruction",
			"cpuCyclesPerCycle": "configuration, reproduced by reconstruction",
		},
	},
	{
		typ: mem.SDRAM{},
		serialized: []string{"banks", "queue", "stats", "dataBusFreeAt", "lastActAt",
			"anyActed", "kickPlanned", "inflight"},
		exempt: map[string]string{
			"cfg":  "configuration, reproduced by reconstruction",
			"eng":  "wiring, reproduced by reconstruction",
			"name": "label, reproduced by reconstruction",
		},
	},
	{
		typ:        mem.ConstLatency{},
		serialized: []string{"stats"},
		exempt: map[string]string{
			"eng":     "wiring, reproduced by reconstruction",
			"latency": "configuration, reproduced by reconstruction",
		},
	},
	{
		typ: cpu.OoO{},
		serialized: []string{"win", "head", "tail", "readyQ", "lsqUsed",
			"fetchDone", "fetchBlocked", "fetchRetry", "fetchResumeAt",
			"haltOnBranch", "haltBranchSeq", "curFetchLine", "staged", "hasStaged",
			"fetched", "fuCycle", "intALU", "intMD", "fpALU", "fpMD", "ls", "res"},
		exempt: map[string]string{
			"cfg":          "configuration, reproduced by reconstruction",
			"eng":          "wiring, reproduced by reconstruction",
			"h":            "wiring, reproduced by reconstruction",
			"stream":       "the workload cursor is serialized by the runner (StreamState)",
			"fetchScratch": "fetch-loop scratch, dead between Run calls",
			"maxFetch":     "Run-call argument, set by the next Run",
			"freeLoads":    "load-node freelist: in-flight nodes are captured by the LoadResolver, free ones are a pool",
			"stopInsts":    "prefix-run control, cleared before a restored measurement",
			"warmInsts":    "runner warm-up hook, re-armed per run",
			"onWarm":       "runner warm-up hook, re-armed per run",
			"storeAcc":     "commit-stage scratch: Addr/PC rebuilt from the head window entry at every attempt, Write re-bound at construction",
			"headRefuse":   "per-cycle scratch: rewritten by commit() before stallTarget reads it",
			"fetchRefuse":  "per-cycle scratch: rewritten by fetch() before stallTarget reads it",
		},
	},
	{
		typ:        cpu.InOrder{},
		serialized: []string{"loadAcc", "storeAcc", "waiting", "doneAt", "res"},
		exempt: map[string]string{
			"eng":               "wiring, reproduced by reconstruction",
			"h":                 "wiring, reproduced by reconstruction",
			"stream":            "the workload cursor is serialized by the runner (StreamState)",
			"mispredictPenalty": "configuration, reproduced by reconstruction",
			"warmInsts":         "runner warm-up hook, re-armed per run",
			"onWarm":            "runner warm-up hook, re-armed per run",
			"instScratch":       "Run-loop scratch, dead between Run calls",
		},
	},
	{
		typ: workload.Generator{},
		serialized: []string{"rng", "patterns", "lastSeq", "phaseIdx", "inPhase",
			"curLoop", "loopIters", "blockIdx", "instIdx", "seq"},
		exempt: map[string]string{
			"prog": "shared read-only program image (profile copy, oracle, pattern tables, loop/block templates) built from (profile, seed) and never written after the build; reproduced by reconstruction, and the serialized cursor indexes into it",
		},
	},
	{
		typ:        trace.File{},
		serialized: []string{"r"},
		exempt: map[string]string{
			"f": "OS file handle; the cursor is serialized as the absolute record index and restored by SeekRecord",
		},
	},
	{
		typ:        prng.Source{},
		serialized: []string{"s"},
	},
	{
		typ: hier.Hierarchy{},
		serialized: []string{"L1D", "L1I", "L2", "L1Bus", "FSB", "Mem",
			"l1dBack", "l1iBack", "memBack", "constBack"},
		exempt: map[string]string{
			"Eng": "the engine snapshots itself (sim.EngineState)",
		},
	},
	{
		typ:        sp.SP{},
		serialized: []string{"table", "reads", "writes", "issued"},
		exempt: map[string]string{
			"l2":     "wiring, reproduced by reconstruction",
			"mask":   "derived from configuration at construction",
			"degree": "configuration, reproduced by reconstruction",
		},
	},
	{
		typ:        tp.TP{},
		serialized: []string{"triggers", "reads", "writes"},
		exempt: map[string]string{
			"l2":       "wiring, reproduced by reconstruction",
			"lineSize": "derived from configuration at construction",
		},
	},
	{
		typ:        ghb.GHB{},
		serialized: []string{"it", "itTags", "buf", "bufPos", "seq", "reads", "writes", "issued", "walks"},
		exempt: map[string]string{
			"l2":      "wiring, reproduced by reconstruction",
			"itMask":  "derived from configuration at construction",
			"degree":  "configuration, reproduced by reconstruction",
			"maxWalk": "configuration, reproduced by reconstruction",
		},
	},
	{
		typ:        tcp.TCP{},
		serialized: []string{"tht", "pht", "reads", "writes", "issued"},
		exempt: map[string]string{
			"l2":        "wiring, reproduced by reconstruction",
			"thtMask":   "derived from configuration at construction",
			"phtSets":   "derived from configuration at construction",
			"phtWays":   "derived from configuration at construction",
			"lineShift": "derived from configuration at construction",
			"setBits":   "derived from configuration at construction",
			"setMask":   "derived from configuration at construction",
		},
	},
	{
		typ:        fvc.FVC{},
		serialized: []string{"lines", "ring", "pos", "Inserts", "Rejected", "Hits", "Probes"},
		exempt: map[string]string{
			"l1":       "wiring, reproduced by reconstruction",
			"values":   "wiring, reproduced by reconstruction",
			"freq":     "static frequent-value set, built at construction",
			"lineSize": "derived from configuration at construction",
		},
	},
	{
		typ:        cdp.CDP{},
		serialized: []string{"depth", "scans", "candidates", "issued"},
		exempt: map[string]string{
			"l2":       "wiring, reproduced by reconstruction",
			"values":   "wiring, reproduced by reconstruction",
			"depthCap": "configuration, reproduced by reconstruction",
			"lineSize": "derived from configuration at construction",
		},
	},
	{
		typ:        cdp.Combined{},
		serialized: []string{"CDP", "SP"},
	},
	{
		typ: dbcp.DBCP{},
		serialized: []string{"live", "table", "pendingKey", "havePend",
			"reads", "writes", "issued", "predictions"},
		exempt: map[string]string{
			"l1":         "wiring, reproduced by reconstruction",
			"historyCap": "configuration, reproduced by reconstruction",
			"ways":       "derived from configuration at construction",
			"sets":       "derived from configuration at construction",
			"buggy":      "configuration, reproduced by reconstruction",
		},
	},
	{
		typ:        vc.VC{},
		serialized: []string{"entries", "tick", "Inserts", "Hits", "Probes", "wbacks"},
		exempt: map[string]string{
			"eng": "wiring, reproduced by reconstruction",
			"l1":  "wiring, reproduced by reconstruction",
		},
	},
	{
		typ: tk.TK{},
		serialized: []string{"lastTouch", "corr", "pendingVictim", "haveVictim",
			"reads", "writes", "issued", "scans"},
		exempt: map[string]string{
			"eng":       "wiring, reproduced by reconstruction",
			"l1":        "wiring, reproduced by reconstruction",
			"refresh":   "configuration, reproduced by reconstruction",
			"threshold": "configuration, reproduced by reconstruction",
			"corrCap":   "configuration, reproduced by reconstruction",
		},
	},
	{
		typ:        tk.TKVC{},
		serialized: []string{"VC", "lastTouch", "Filtered"},
		exempt: map[string]string{
			"l1":        "wiring, reproduced by reconstruction",
			"threshold": "configuration, reproduced by reconstruction",
		},
	},
	{
		typ:        ewb.EWB{},
		serialized: []string{"Eager", "scans"},
		exempt: map[string]string{
			"eng":      "wiring, reproduced by reconstruction",
			"l2":       "wiring, reproduced by reconstruction",
			"interval": "configuration, reproduced by reconstruction",
			"batch":    "configuration, reproduced by reconstruction",
		},
	},
	{
		typ: markov.Markov{},
		serialized: []string{"table", "buffer", "ring", "ringPos", "prevMiss",
			"reads", "writes", "bufHits", "issued"},
		exempt: map[string]string{
			"l1":   "wiring, reproduced by reconstruction",
			"mask": "derived from configuration at construction",
		},
	},
}

// TestSnapshotCompleteness is the checkpoint wiring gate: every field
// of every stateful component must be accounted for — serialized into
// its snapshot state or exempted with a reason. A field that is
// neither (typically: freshly added, mutated during simulation, and
// forgotten by the snapshot) would make restored runs diverge from
// live ones, so it fails here instead.
func TestSnapshotCompleteness(t *testing.T) {
	for _, c := range snapshotCoverage {
		rt := reflect.TypeOf(c.typ)
		name := rt.String()
		ser := make(map[string]bool, len(c.serialized))
		for _, f := range c.serialized {
			ser[f] = true
		}
		seen := make(map[string]bool, rt.NumField())
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i).Name
			seen[f] = true
			reason, exempted := c.exempt[f]
			switch {
			case ser[f] && exempted:
				t.Errorf("%s.%s: both serialized and exempted — drop one", name, f)
			case exempted && reason == "":
				t.Errorf("%s.%s: exemption without a reason", name, f)
			case !ser[f] && !exempted:
				t.Errorf("%s.%s: not in the snapshot state and not exempted — serialize it or add an exemption with a reason", name, f)
			}
		}
		// Hygiene in the other direction: ledger entries must name
		// real fields, or the gate rots as components evolve.
		for _, f := range c.serialized {
			if !seen[f] {
				t.Errorf("%s.%s: serialized entry names no such field (typo or removed field)", name, f)
			}
		}
		for f := range c.exempt {
			if !seen[f] {
				t.Errorf("%s.%s: exemption names no such field (stale)", name, f)
			}
		}
	}
}
