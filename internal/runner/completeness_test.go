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
	"microlib/internal/sim"
	"microlib/internal/trace"
	"microlib/internal/workload"
)

// snapshotCoverage is the warm-state checkpointing completeness
// ledger, in the style of the cfgreg wiring gate: every field of every
// stateful component is either serialized or exempted with the reason
// it need not survive a snapshot. A field added to a component without
// a decision here fails TestSnapshotCompleteness, loudly, before an
// incomplete checkpoint can silently break bit-identity.
//
// Most components keep all their mutable state in one field, st, of
// the plain-data type their snapshot serializes, and statecopy copies
// it whole; their serialized list is just "st", so the ledger is
// structural: a new mutable field either lands inside st, where no
// converter can miss it, or outside it, where it needs an exemption
// here. TestSnapshotCompleteness also checks that every st type is
// plain exported data. The components whose state holds operand
// references (the engine, caches, SDRAM queue, hierarchy node tables,
// the in-order core) still list their serialized fields one by one:
// their snapshot code copies those fields by hand.
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
		serialized: []string{"lines", "useTick", "stallUntil", "portCycle", "portsUsed",
			"mshrs", "mshrsIn", "pq", "pqHead", "pqRetryArm", "stats"},
		exempt: map[string]string{
			"cfg":              "configuration, reproduced by reconstruction",
			"eng":              "wiring, reproduced by reconstruction",
			"backend":          "wiring, reproduced by reconstruction",
			"setMask":          "derived from configuration at construction",
			"ways":             "derived from configuration at construction",
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
			"probed":           "replay bookkeeping: a core reads it only as a delta within one Run (Rejects.Probed)",
		},
	},
	{
		typ:        bus.Bus{},
		serialized: []string{"st"},
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
		serialized: []string{"st"},
		exempt: map[string]string{
			"eng":     "wiring, reproduced by reconstruction",
			"latency": "configuration, reproduced by reconstruction",
		},
	},
	{
		typ:        cpu.OoO{},
		serialized: []string{"st"},
		exempt: map[string]string{
			"cfg":          "configuration, reproduced by reconstruction",
			"eng":          "wiring, reproduced by reconstruction",
			"h":            "wiring, reproduced by reconstruction",
			"stream":       "the workload cursor is serialized by the runner (StreamState)",
			"fetchScratch": "fetch-loop scratch, dead between Run calls",
			"maxFetch":     "Run-call argument, set by the next Run",
			"freeLoads":    "load-node freelist: in-flight nodes are captured by the LoadResolver, free ones are a pool",
			"res":          "capture scratch, reset by every NewLoadResolver",
			"rest":         "restore scratch, reset by every NewLoadRestorer",
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
		typ:        workload.Generator{},
		serialized: []string{"st"},
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
		typ: hier.Hierarchy{},
		serialized: []string{"L1D", "L1I", "L2", "L1Bus", "FSB", "Mem",
			"l1dBack", "l1iBack", "memBack", "constBack"},
		exempt: map[string]string{
			"Eng":  "the engine snapshots itself (sim.EngineState)",
			"snap": "capture scratch, reset by every NewSnapshotter",
			"rest": "restore scratch, reset by every NewRestorer",
		},
	},
	{
		typ:        sp.SP{},
		serialized: []string{"st"},
		exempt: map[string]string{
			"l2":     "wiring, reproduced by reconstruction",
			"mask":   "derived from configuration at construction",
			"degree": "configuration, reproduced by reconstruction",
		},
	},
	{
		typ:        tp.TP{},
		serialized: []string{"st"},
		exempt: map[string]string{
			"l2":       "wiring, reproduced by reconstruction",
			"lineSize": "derived from configuration at construction",
		},
	},
	{
		typ:        ghb.GHB{},
		serialized: []string{"st"},
		exempt: map[string]string{
			"l2":      "wiring, reproduced by reconstruction",
			"itMask":  "derived from configuration at construction",
			"degree":  "configuration, reproduced by reconstruction",
			"maxWalk": "configuration, reproduced by reconstruction",
		},
	},
	{
		typ:        tcp.TCP{},
		serialized: []string{"st"},
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
		serialized: []string{"st"},
		exempt: map[string]string{
			"lines":    "derived index over st.Ring, rebuilt by RestoreState",
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
		serialized: []string{"st"},
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
		serialized: []string{"st"},
		exempt: map[string]string{
			"eng":      "wiring, reproduced by reconstruction",
			"l2":       "wiring, reproduced by reconstruction",
			"interval": "configuration, reproduced by reconstruction",
			"batch":    "configuration, reproduced by reconstruction",
		},
	},
	{
		typ:        markov.Markov{},
		serialized: []string{"st"},
		exempt: map[string]string{
			"l1":     "wiring, reproduced by reconstruction",
			"mask":   "derived from configuration at construction",
			"buffer": "derived index over st.Ring, rebuilt by RestoreState",
		},
	},
}

// TestSnapshotCompleteness is the checkpoint wiring gate: every field
// of every stateful component must be accounted for — serialized into
// its snapshot state or exempted with a reason. A field that is
// neither (typically: freshly added, mutated during simulation, and
// forgotten by the snapshot) would make restored runs diverge from
// live ones, so it fails here instead. A component that serializes an
// st field serializes nothing else, and that field must be plain
// exported data, or statecopy could not copy it whole.
func TestSnapshotCompleteness(t *testing.T) {
	for _, c := range snapshotCoverage {
		rt := reflect.TypeOf(c.typ)
		name := rt.String()
		ser := make(map[string]bool, len(c.serialized))
		for _, f := range c.serialized {
			ser[f] = true
		}
		if ser["st"] {
			if len(c.serialized) != 1 {
				t.Errorf("%s: serializes st and %q: state outside st is not copied", name, c.serialized)
			}
			if f, ok := rt.FieldByName("st"); ok {
				for _, p := range stateTypeProblems(f.Type) {
					t.Errorf("%s.st: %s", name, p)
				}
			}
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

// stateTypeProblems lists what keeps t from being a type statecopy
// copies, as dotted field paths: unexported fields, which gob skips
// and reflection may not write, and references, which a copy would
// share.
func stateTypeProblems(t reflect.Type) []string {
	var out []string
	var walk func(t reflect.Type, path string)
	walk = func(t reflect.Type, path string) {
		switch t.Kind() {
		case reflect.Array, reflect.Slice:
			walk(t.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				p := path + "." + f.Name
				if !f.IsExported() {
					out = append(out, p+" is unexported")
					continue
				}
				walk(f.Type, p)
			}
		case reflect.Map, reflect.Pointer, reflect.Interface, reflect.Chan,
			reflect.Func, reflect.UnsafePointer:
			out = append(out, path+" is a reference")
		}
	}
	walk(t, t.String())
	return out
}

// TestCopiedStateTypesArePlainData covers the state statecopy copies
// outside an st field (the cache line and SDRAM bank arrays, whose
// element types are the live array elements themselves) and checks
// that stateTypeProblems reports what it must.
func TestCopiedStateTypesArePlainData(t *testing.T) {
	for _, v := range []any{cache.LineState{}, mem.BankState{}} {
		for _, p := range stateTypeProblems(reflect.TypeOf(v)) {
			t.Error(p)
		}
	}
	type bad struct {
		Rows []struct{ n int }
		M    map[int]int
	}
	got := stateTypeProblems(reflect.TypeOf(bad{}))
	want := []string{"runner.bad.Rows[].n is unexported", "runner.bad.M is a reference"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stateTypeProblems(bad) = %q, want %q", got, want)
	}
}
