// Package microlib is an open library of modular micro-architecture
// simulator components, reproducing "MicroLib: A Case for the
// Quantitative Comparison of Micro-Architecture Mechanisms"
// (Gracia Pérez, Mouchard, Temam — MICRO 2004).
//
// The library provides:
//
//   - a detailed, pluggable memory hierarchy (pipelined caches with
//     finite MSHRs and port arbitration, split buses, an SDRAM with
//     bank/row timing and scheduling) and two host processor models
//     (an out-of-order superscalar and a scalar in-order core);
//   - twelve published hardware data-cache optimizations implemented
//     as interchangeable mechanism modules (tagged prefetching,
//     victim cache, stride prefetching, Markov prefetching, frequent
//     value cache, dead-block correlating prefetching, timekeeping,
//     content-directed prefetching, tag-correlating prefetching,
//     global history buffer, and combinations);
//   - 26 synthetic SPEC CPU2000 workload models with a memory value
//     oracle, plus SimPoint-style trace selection;
//   - the paper's full quantitative-comparison harness: speedup
//     grids, rankings, winner-subset analysis, CACTI/XCACTI-style
//     cost and power models, and one experiment driver per table and
//     figure of the evaluation.
//
// Quick start:
//
//	res, err := microlib.Run(microlib.NewOptions("gzip", "GHB"))
//	if err != nil { ... }
//	fmt.Printf("IPC %.3f\n", res.IPC)
//
// See the examples/ directory for runnable programs and DESIGN.md
// for the system inventory.
package microlib

import (
	"context"
	"fmt"
	"io"
	"strings"

	"microlib/internal/cache"
	"microlib/internal/campaign"
	"microlib/internal/cfgreg"
	"microlib/internal/core"
	"microlib/internal/cpu"
	"microlib/internal/experiments"
	"microlib/internal/fault"
	"microlib/internal/hier"
	"microlib/internal/runner"
	"microlib/internal/telemetry"
	"microlib/internal/workload"
)

// Options selects one simulation (benchmark, mechanism, hierarchy,
// trace window). See NewOptions for sensible defaults.
type Options = runner.Options

// Result is the outcome of one simulation: IPC plus per-level cache,
// memory and mechanism-hardware statistics.
type Result = runner.Result

// HierConfig describes the memory hierarchy (Table 1 defaults via
// DefaultHierarchy).
type HierConfig = hier.Config

// CPUConfig describes the host core (Table 1 defaults via
// DefaultCPU).
type CPUConfig = cpu.Config

// MemoryKind selects the main-memory model.
type MemoryKind = hier.MemoryKind

// Memory model choices (the paper's Figure 8 compares all three).
const (
	MemSDRAM   = hier.MemSDRAM
	MemConst70 = hier.MemConst70
	MemSDRAM70 = hier.MemSDRAM70
)

// BaseMechanism names the unmodified hierarchy.
const BaseMechanism = runner.BaseName

// NewOptions returns the Table 1 system with the standard scaled
// trace budget, ready to Run.
func NewOptions(bench, mechanism string) Options {
	return runner.DefaultOptions(bench, mechanism)
}

// Run executes one simulation.
func Run(opts Options) (Result, error) { return runner.Run(opts) }

// DefaultHierarchy returns the paper's Table 1 memory system.
func DefaultHierarchy() HierConfig { return hier.DefaultConfig() }

// DefaultCPU returns the paper's Table 1 processor core.
func DefaultCPU() CPUConfig { return cpu.DefaultConfig() }

// Benchmarks returns the 26 synthetic SPEC CPU2000 benchmark names.
func Benchmarks() []string { return workload.Names() }

// Mechanisms returns the registered mechanism names.
func Mechanisms() []string { return core.Names() }

// MechDescription documents a registered mechanism (Table 2 row).
type MechDescription = core.Description

// DescribeMechanism returns a mechanism's registry entry.
func DescribeMechanism(name string) (MechDescription, bool) { return core.Describe(name) }

// MechanismDescriptions lists all registered mechanisms in
// publication order.
func MechanismDescriptions() []MechDescription { return core.Descriptions() }

// --- mechanism development API ---
// A custom mechanism is registered with RegisterMechanism and
// attaches itself to the caches in MechEnv by implementing any of
// the hook interfaces below; see examples/custommech.

// MechEnv is the environment a mechanism factory receives.
type MechEnv = core.Env

// MechParams carries per-mechanism integer options.
type MechParams = core.Params

// Mechanism is the interface every registered module satisfies.
type Mechanism = core.Mechanism

// MechFactory builds a mechanism in an environment.
type MechFactory = core.Factory

// HWTable describes one SRAM structure a mechanism adds (consumed by
// the cost/power models).
type HWTable = core.HWTable

// Cache is one level of the hierarchy; mechanisms attach to it and
// issue prefetches through it.
type Cache = cache.Cache

// AccessEvent is the demand-access notification mechanisms observe.
type AccessEvent = cache.AccessEvent

// CacheStats are per-cache counters.
type CacheStats = cache.Stats

// RegisterMechanism installs a custom mechanism factory; it can then
// be selected by name in Options.Mechanism.
func RegisterMechanism(desc MechDescription, f MechFactory) { core.Register(desc, f) }

// --- config-field registry ---
// Every tunable knob of the simulated system is addressable by a
// dotted path ("hier.l1d.size", "cpu.ruu", "hier.sdram.cas-latency"):
// settable on an Options value (the CLIs' repeatable -set flag),
// pinnable in a campaign spec ("set"), and sweepable as a campaign
// axis ("fields"). `mlcampaign paths` prints the full table.

// ConfigField describes one registered config field (path, kind,
// enum values, documentation).
type ConfigField = cfgreg.Field

// ConfigFields returns every registered config field, sorted by path.
func ConfigFields() []ConfigField { return cfgreg.Fields() }

// ConfigPaths returns every registered dotted path, sorted.
func ConfigPaths() []string { return cfgreg.Paths() }

// SetOptionField sets one registry config field on an Options value,
// running the field's own validation.
func SetOptionField(o *Options, path, value string) error {
	return cfgreg.Set(cfgreg.Target{Hier: &o.Hier, CPU: &o.CPU}, path, value)
}

// GetOptionField reads one registry config field off an Options
// value, in the canonical string form SetOptionField accepts.
func GetOptionField(o *Options, path string) (string, error) {
	return cfgreg.Get(cfgreg.Target{Hier: &o.Hier, CPU: &o.CPU}, path)
}

// SetFlags collects the CLIs' repeatable `-set path=value` overrides
// (register with flag.Var); the path=value syntax is checked as the
// flag is parsed, the path and value themselves when applied.
type SetFlags []string

// String implements flag.Value.
func (s *SetFlags) String() string { return strings.Join(*s, " ") }

// Set implements flag.Value.
func (s *SetFlags) Set(v string) error {
	if _, _, ok := strings.Cut(v, "="); !ok {
		return fmt.Errorf("want path=value")
	}
	*s = append(*s, v)
	return nil
}

// Apply writes the overrides onto an Options value, in flag order.
func (s SetFlags) Apply(o *Options) error {
	for _, kv := range s {
		path, value, _ := strings.Cut(kv, "=")
		if err := SetOptionField(o, path, value); err != nil {
			return err
		}
	}
	return nil
}

// Pin folds the overrides into a campaign spec's "set" section (the
// CLI wins over the file); they are validated at plan time.
func (s SetFlags) Pin(spec *CampaignSpec) {
	for _, kv := range s {
		path, value, _ := strings.Cut(kv, "=")
		PinCampaignField(spec, path, value)
	}
}

// QueueOverrideConflictPaths are the registry paths a nonzero
// prefetch-queue override (Options.QueueOverride, microsim -queue,
// a campaign's queues axis) force-clobbers after mechanism attach;
// CLIs reject combining them with an override.
func QueueOverrideConflictPaths() []string { return campaign.QueueOverridePaths() }

// Map returns the overrides as a path→value map (later flags win),
// the form ExperimentRunner.SetFields takes.
func (s SetFlags) Map() map[string]string {
	if len(s) == 0 {
		return nil
	}
	out := make(map[string]string, len(s))
	for _, kv := range s {
		path, value, _ := strings.Cut(kv, "=")
		out[path] = value
	}
	return out
}

// --- experiment harness ---

// ExperimentRunner drives the paper's tables and figures.
type ExperimentRunner = experiments.Runner

// Report is one regenerated artifact.
type Report = experiments.Report

// NewExperiments returns the standard experiment configuration.
func NewExperiments() *ExperimentRunner { return experiments.Default() }

// RunExperiment regenerates one table or figure by id ("fig4",
// "table6", ...); Experiments lists the ids.
func RunExperiment(r *ExperimentRunner, id string) (Report, error) {
	return experiments.Run(r, id)
}

// Experiments returns the available experiment ids.
func Experiments() []string { return experiments.IDs() }

// --- campaign engine ---
// A campaign is a declarative simulation sweep: a JSON spec names
// the axes (benchmarks, mechanisms, hierarchy variants, memory
// models, cores, queue overrides, parameter sets, trace-selection
// policies, budgets, seeds), the engine compiles them into a single
// axis table, expands the cross-product into a deterministic plan,
// executes it on a worker pool with a persistent fingerprint-keyed
// result cache, and aggregates speedup grids, rankings and
// confidence intervals per scenario. See cmd/mlcampaign,
// examples/campaign, and examples/campaign/figures for the paper's
// own figures as shipped specs.

// CampaignSpec declares a simulation campaign.
type CampaignSpec = campaign.Spec

// CampaignWorkload defines one campaign-local custom workload: an
// inline synthetic profile or a recorded trace file, swept by name
// on the benchmarks axis but cached by content.
type CampaignWorkload = campaign.WorkloadSpec

// WorkloadProfile is the static description of a synthetic workload
// (the built-in benchmarks are instances of it); its JSON form is
// the inline-profile section of a campaign spec.
type WorkloadProfile = workload.Profile

// WorkloadPattern parameterizes one access pattern of a profile.
type WorkloadPattern = workload.PatternSpec

// WorkloadPatternKind selects an access-pattern state machine.
type WorkloadPatternKind = workload.PatternKind

// Access-pattern kinds for custom workload profiles (their String
// forms are the JSON names).
const (
	PatHot      = workload.PatHot
	PatSeq      = workload.PatSeq
	PatStride   = workload.PatStride
	PatTile     = workload.PatTile
	PatChase    = workload.PatChase
	PatTour     = workload.PatTour
	PatRand     = workload.PatRand
	PatConflict = workload.PatConflict
)

// WorkloadPhase is one program phase of a profile.
type WorkloadPhase = workload.PhaseSpec

// CustomWorkload is a runner-level workload source (inline profile
// or trace file) assignable to Options.Workload.
type CustomWorkload = runner.Workload

// NewProfileWorkload wraps a validated inline profile as a custom
// workload for Options.Workload.
func NewProfileWorkload(p WorkloadProfile) (*CustomWorkload, error) {
	return runner.NewProfileWorkload(p)
}

// NewTraceWorkload opens and hashes a recorded trace file as a
// custom workload for Options.Workload.
func NewTraceWorkload(path string) (*CustomWorkload, error) {
	return runner.NewTraceWorkload(path)
}

// ParseWorkloadProfile decodes and validates a profile's JSON form.
func ParseWorkloadProfile(data []byte) (WorkloadProfile, error) {
	return workload.ParseProfile(data)
}

// WorkloadPatternKinds returns the valid pattern-kind names of the
// profile JSON form.
func WorkloadPatternKinds() []string { return workload.PatternKindNames() }

// RecordTrace captures insts instructions of a workload — a built-in
// benchmark or a spec-defined custom workload — to w in the binary
// trace format. Pass a zero CampaignSpec for built-ins.
func RecordTrace(spec CampaignSpec, name string, seed, insts uint64, w io.Writer) (uint64, error) {
	return campaign.Record(spec, name, seed, insts, w)
}

// TraceRecordOptions selects the execution window a recording
// captures: an explicit skip offset, or a selection policy
// ("simpoint", "skip:N") resolved at record time.
type TraceRecordOptions = campaign.RecordOptions

// RecordTraceWindow is RecordTrace with a trace window: the recording
// starts after the resolved skip offset, so the trace captures a
// chosen execution region rather than the stream prefix. Replaying it
// is bit-identical to a live run skipped to the same offset.
func RecordTraceWindow(spec CampaignSpec, name string, opts TraceRecordOptions, w io.Writer) (uint64, error) {
	return campaign.RecordWindow(spec, name, opts, w)
}

// CampaignFieldValue is one config-field value in a campaign spec's
// "set" or "fields" sections (the raw JSON scalar's token text).
type CampaignFieldValue = campaign.FieldValue

// PinCampaignField pins a registry config field for every cell of a
// campaign spec (the spec form of the CLIs' -set flag). The path and
// value are validated when the spec is normalized/planned.
func PinCampaignField(spec *CampaignSpec, path, value string) {
	if spec.Set == nil {
		spec.Set = map[string]CampaignFieldValue{}
	}
	spec.Set[path] = CampaignFieldValue(value)
}

// CampaignPlan is the deterministic expansion of a spec.
type CampaignPlan = campaign.Plan

// CampaignCell is one fully-resolved simulation of a plan.
type CampaignCell = campaign.Cell

// CampaignSummary is the aggregated outcome of a campaign run, with
// Text/CSV/JSON export.
type CampaignSummary = campaign.Summary

// CampaignProgress reports one finished cell.
type CampaignProgress = campaign.Progress

// CampaignStats counts what a campaign execution did (simulated vs
// served from cache).
type CampaignStats = campaign.SchedulerStats

// CampaignConfig configures RunCampaign.
type CampaignConfig = campaign.RunConfig

// CampaignCache is the persistent on-disk result cache.
type CampaignCache = campaign.DiskCache

// ParseCampaignSpec decodes a JSON campaign spec.
func ParseCampaignSpec(data []byte) (CampaignSpec, error) { return campaign.ParseSpec(data) }

// LoadCampaignSpec reads and parses a JSON campaign spec file.
func LoadCampaignSpec(path string) (CampaignSpec, error) { return campaign.LoadSpec(path) }

// NewCampaignPlan normalizes and expands a spec into its cell plan.
func NewCampaignPlan(spec CampaignSpec) (*CampaignPlan, error) { return campaign.NewPlan(spec) }

// CampaignPruneOptions selects which cached campaign cells to delete.
type CampaignPruneOptions = campaign.PruneOptions

// CampaignPruneResult reports what PruneCampaignCache removed.
type CampaignPruneResult = campaign.PruneResult

// PruneCampaignCache garbage-collects a campaign result cache by age
// and/or reachability from a plan's cell fingerprints.
func PruneCampaignCache(c *CampaignCache, opts CampaignPruneOptions) (CampaignPruneResult, error) {
	return campaign.Prune(c, opts)
}

// OpenCampaignCache creates (if needed) and opens a result cache
// directory.
func OpenCampaignCache(dir string) (*CampaignCache, error) { return campaign.OpenDiskCache(dir) }

// CampaignMemories returns the valid memory-model names for a
// campaign spec.
func CampaignMemories() []string { return campaign.MemoryNames() }

// CampaignCores returns the valid host-core names for a campaign
// spec.
func CampaignCores() []string { return campaign.CoreNames() }

// CampaignHiers returns the valid hierarchy-variant names for a
// campaign spec's "hiers" axis.
func CampaignHiers() []string { return hier.VariantNames() }

// CampaignSelections returns the valid trace-selection policy names
// for a campaign spec's "selections" axis (the explicit-offset form
// "skip:N" is also accepted).
func CampaignSelections() []string { return campaign.SelectionNames() }

// CampaignAxisValue is one coordinate of a cell or scenario: an axis
// name and the value taken on it.
type CampaignAxisValue = campaign.AxisValue

// CampaignAxis describes one expanded axis of a plan.
type CampaignAxis = campaign.AxisInfo

// CampaignParamSet is one value of a spec's "paramsets" axis: a
// named bundle of per-mechanism parameter overrides.
type CampaignParamSet = campaign.ParamSetSpec

// CampaignScenario is one aggregated sub-experiment of a campaign.
type CampaignScenario = campaign.Scenario

// CampaignCellResult is the serializable outcome of one cell.
type CampaignCellResult = campaign.CellResult

// CampaignCellCache serves and persists finished cells by
// fingerprint; DiskCache, MemCache and LayeredCache implement it.
type CampaignCellCache = campaign.CellCache

// RunCampaign executes a whole campaign: plan, schedule, aggregate.
// Canceling ctx stops the sweep but keeps finished cells in the
// cache, so rerunning with the same CacheDir resumes incrementally.
func RunCampaign(ctx context.Context, spec CampaignSpec, cfg CampaignConfig) (*CampaignSummary, error) {
	return campaign.Execute(ctx, spec, cfg)
}

// --- fault containment: taxonomy, retry, resume, injection ---------

// CampaignErrKind classifies a cell failure: "model", "panic",
// "timeout" or "io". Deterministic kinds are never retried; transient
// ones may be.
type CampaignErrKind = campaign.ErrKind

// The failure taxonomy kinds.
const (
	CampaignErrModel   = campaign.KindModel
	CampaignErrPanic   = campaign.KindPanic
	CampaignErrTimeout = campaign.KindTimeout
	CampaignErrIO      = campaign.KindIO
)

// CampaignCellError is a classified cell failure (Stack is set for
// recovered simulation panics).
type CampaignCellError = campaign.CellError

// CampaignRetryPolicy bounds transient-failure retries with capped
// exponential backoff.
type CampaignRetryPolicy = campaign.RetryPolicy

// CampaignDegradation records a non-fatal infrastructure failure a
// campaign survived (unpersisted cache entry, quarantined corrupt
// cell, failed back-fill).
type CampaignDegradation = campaign.Degradation

// CampaignStallReport is the scheduler watchdog's flag: no cell has
// finished for longer than the stall threshold.
type CampaignStallReport = campaign.StallReport

// CampaignResumeInfo describes what ResumeCampaign reconstructed
// before rerunning.
type CampaignResumeInfo = campaign.ResumeInfo

// ResumeCampaign continues a crashed or interrupted campaign from its
// journal: the embedded spec is re-expanded and fingerprint-verified,
// completed cells come from the cache, deterministic failures replay
// from the journal, and only the remainder simulates. New events are
// appended to the same journal file.
func ResumeCampaign(ctx context.Context, journalPath string, cfg CampaignConfig) (*CampaignSummary, CampaignResumeInfo, error) {
	return campaign.Resume(ctx, journalPath, cfg)
}

// FaultInjector is a deterministic fault-injection schedule for the
// campaign engine's chaos testing (see CampaignConfig.Faults and the
// mlcampaign -faults flag). A nil injector never fires.
type FaultInjector = fault.Injector

// NewFaultInjector returns an empty injector keyed by seed; arm
// points with Enable/EnableKeys/Limit.
func NewFaultInjector(seed uint64) *FaultInjector { return fault.New(seed) }

// ParseFaultSpec builds an injector from the -faults flag syntax:
// comma-separated point=rate or point=rate@limit entries, e.g.
// "cell.panic=1@1,cache.put.error=0.5".
func ParseFaultSpec(spec string, seed uint64) (*FaultInjector, error) {
	return fault.Parse(spec, seed)
}

// FaultPoints returns the names of every wired injection point.
func FaultPoints() []string {
	ps := fault.Points()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = string(p)
	}
	return names
}

// --- telemetry: interval series, run journals, live endpoint --------

// TelemetryInterval is one time-resolved slice of a simulation: the
// exact counter deltas between two sampling boundaries. Enable the
// sampler with Options.Interval + Options.IntervalSink; summed
// deltas reproduce the whole-run counters bit for bit.
type TelemetryInterval = telemetry.Interval

// TelemetryBusCounters are per-interconnect counter deltas.
type TelemetryBusCounters = telemetry.BusCounters

// SumIntervals folds an interval series into one interval covering
// its whole span.
func SumIntervals(ivs []TelemetryInterval) TelemetryInterval { return telemetry.Sum(ivs) }

// WriteIntervals renders an interval time series as "text", "csv" or
// "json".
func WriteIntervals(w io.Writer, format string, ivs []TelemetryInterval) error {
	return telemetry.WriteIntervals(w, format, ivs)
}

// IntervalFormats lists the interval series output formats.
func IntervalFormats() []string { return telemetry.FormatNames() }

// Metrics is an expvar-style registry of live gauges, served by
// ServeMetrics at /metrics alongside net/http/pprof.
type Metrics = telemetry.Metrics

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return telemetry.NewMetrics() }

// MetricsServer is a running live metrics/pprof endpoint.
type MetricsServer = telemetry.Server

// ServeMetrics binds addr and serves m (plus pprof) in the
// background; it returns once the listener is bound.
func ServeMetrics(addr string, m *Metrics) (*MetricsServer, error) {
	return telemetry.Serve(addr, m)
}

// CampaignLiveStats is the mid-run view of a campaign the scheduler
// keeps updated; pass one in CampaignConfig.Live and snapshot it from
// a progress display or metrics endpoint.
type CampaignLiveStats = campaign.LiveStats

// CampaignLiveSnapshot is one consistent reading of a running
// campaign, with derived rates (cells/s, insts/s, ETA, utilization).
type CampaignLiveSnapshot = campaign.LiveSnapshot

// CampaignJournalEvent is one line of a campaign run journal.
type CampaignJournalEvent = campaign.JournalEvent

// CampaignJournalStatus is the digest of a run journal.
type CampaignJournalStatus = campaign.JournalStatus

// TornTailError marks a JSONL stream whose final line is malformed —
// the signature of a writer killed mid-record. ReadCampaignJournal
// returns the intact events alongside it, so status and resume work
// on exactly the journals crashes leave behind.
type TornTailError = telemetry.TornTailError

// ReadCampaignJournal parses a JSONL run journal back into events. A
// torn final line comes back as the decoded prefix plus a
// *TornTailError; any other malformed line is a hard error.
func ReadCampaignJournal(r io.Reader) ([]CampaignJournalEvent, error) {
	return campaign.ReadJournal(r)
}

// SummarizeCampaignJournal digests journal events into the status
// report `mlcampaign status` prints.
func SummarizeCampaignJournal(evs []CampaignJournalEvent) (CampaignJournalStatus, error) {
	return campaign.SummarizeJournal(evs)
}

// CampaignCacheCounters is a snapshot of a disk cache's access
// statistics (hits, misses, bytes moved) since it was opened.
type CampaignCacheCounters = campaign.CacheCounters

// RegisterCampaignMetrics exposes a running campaign's live stats and
// disk-cache counters on a metrics registry (see CampaignConfig's
// Metrics field, which RunCampaign wires automatically).
func RegisterCampaignMetrics(m *Metrics, live *CampaignLiveStats, cache *CampaignCache) {
	campaign.RegisterCampaignMetrics(m, live, cache)
}
