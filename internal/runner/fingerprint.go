package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"microlib/internal/cache"
	"microlib/internal/cpu"
	"microlib/internal/hier"
)

// FingerprintVersion tags the canonical serialization format of
// Options AND the behavior of the simulator models behind it. Bump
// it whenever Options gains a field, the canonical form changes, or
// any model change (cache, memory, core, mechanism) alters
// simulation results for unchanged Options — persistent campaign
// caches key on the fingerprint, and a stale version would silently
// serve an older simulator's numbers as current.
//
// v2: Options gained custom workload sources (Workload), the
// canonical form gained the workload content identity, and the
// generator's phase-transition loopIters reset changed long-run
// streams of every built-in benchmark.
const FingerprintVersion = 2

// Canonical returns the deterministic textual form of the
// fully-resolved options: defaults applied (empty mechanism becomes
// BaseName, a zero instruction budget becomes the Run default),
// Params keys sorted. Two Options values that would simulate the
// same system produce the same canonical string.
func (o Options) Canonical() string {
	c, _ := o.render()
	return c
}

// marks locate what the derived canonical forms need in a rendered
// canonical form: the workload identity and normalized seed as
// rendered, and the offsets of the measured-budget segment.
type marks struct {
	bench         string
	seed          uint64
	insts, warmup int
}

// render builds the canonical form and its marks in one pass.
func (o Options) render() (string, marks) {
	mech := o.Mechanism
	if mech == "" {
		mech = BaseName
	}
	insts := o.Insts
	if insts == 0 {
		insts = defaultInsts
	}

	keys := make([]string, 0, len(o.Params))
	for k := range o.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var m marks
	m.bench, m.seed = o.identity()
	// The Table 1 configuration renders to about 1,150 bytes.
	var b strings.Builder
	b.Grow(1536)
	writeInt(&b, "v", FingerprintVersion)
	b.WriteString("|bench=")
	b.WriteString(m.bench)
	b.WriteString("|mech=")
	b.WriteString(mech)
	b.WriteString("|params={")
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		writeInt(&b, ":", o.Params[k])
	}
	// Hier and CPU render as fmt's %+v would render them (see
	// writeHier), a form fingerprints have always used.
	b.WriteString("}|hier=")
	writeHier(&b, &o.Hier)
	b.WriteString("|cpu=")
	writeCPU(&b, &o.CPU)
	m.insts = b.Len()
	writeUint(&b, "|insts=", insts)
	m.warmup = b.Len()
	writeUint(&b, "|warmup=", o.Warmup)
	writeUint(&b, "|skip=", o.Skip)
	writeUint(&b, "|seed=", m.seed)
	writeBool(&b, "|inorder=", o.InOrder)
	writeInt(&b, "|queue=", o.QueueOverride)
	writeBool(&b, "|pfd=", o.PrefetchAsDemand)
	return b.String(), m
}

// writeHier writes c as fmt's %+v renders it — {Field:value ...},
// nested structs alike, the memory kind by its String method — without
// fmt's reflection. TestCanonicalRendersLikeFmt holds it to %+v field
// by field; a field added to a configuration struct must be added
// here too.
func writeHier(b *strings.Builder, c *hier.Config) {
	b.WriteString("{L1D:")
	writeCache(b, &c.L1D)
	b.WriteString(" L1I:")
	writeCache(b, &c.L1I)
	b.WriteString(" L2:")
	writeCache(b, &c.L2)
	b.WriteString(" Memory:")
	b.WriteString(c.Memory.String())
	writeUint(b, " ConstLatency:", c.ConstLatency)
	d := &c.SDRAM
	writeInt(b, " SDRAM:{Banks:", d.Banks)
	writeInt(b, " Rows:", d.Rows)
	writeInt(b, " Columns:", d.Columns)
	writeUint(b, " RASToRAS:", d.RASToRAS)
	writeUint(b, " RASActive:", d.RASActive)
	writeUint(b, " RASToCAS:", d.RASToCAS)
	writeUint(b, " CASLatency:", d.CASLatency)
	writeUint(b, " RASPre:", d.RASPre)
	writeUint(b, " RASCycle:", d.RASCycle)
	writeInt(b, " QueueSize:", d.QueueSize)
	writeUint(b, " BurstCycles:", d.BurstCycles)
	writeInt(b, " Policy:", int(d.Policy))
	writeInt(b, " Interleave:", int(d.Interleave))
	writeUint(b, " LineSize:", d.LineSize)
	b.WriteByte('}')
	writeUint(b, " L1BusBytes:", c.L1BusBytes)
	writeUint(b, " L1BusCPUCycles:", c.L1BusCPUCycles)
	writeUint(b, " FSBBytes:", c.FSBBytes)
	writeUint(b, " FSBCPUCycles:", c.FSBCPUCycles)
	b.WriteByte('}')
}

// writeCache writes one cache level's %+v form (see writeHier).
func writeCache(b *strings.Builder, c *cache.Config) {
	b.WriteString("{Name:")
	b.WriteString(c.Name)
	writeInt(b, " Size:", c.Size)
	writeInt(b, " LineSize:", c.LineSize)
	writeInt(b, " Assoc:", c.Assoc)
	writeUint(b, " HitLatency:", c.HitLatency)
	writeInt(b, " Ports:", c.Ports)
	writeInt(b, " MSHRs:", c.MSHRs)
	writeInt(b, " ReadsPerMSHR:", c.ReadsPerMSHR)
	writeBool(b, " WriteBack:", c.WriteBack)
	writeBool(b, " AllocOnWrite:", c.AllocOnWrite)
	writeBool(b, " InfiniteMSHR:", c.InfiniteMSHR)
	writeBool(b, " FreeRefillPorts:", c.FreeRefillPorts)
	writeBool(b, " NoPipelineStall:", c.NoPipelineStall)
	writeInt(b, " PrefetchQueueCap:", c.PrefetchQueueCap)
	b.WriteByte('}')
}

// writeCPU writes the core configuration's %+v form (see writeHier).
func writeCPU(b *strings.Builder, c *cpu.Config) {
	writeInt(b, "{RUUSize:", c.RUUSize)
	writeInt(b, " LSQSize:", c.LSQSize)
	writeInt(b, " FetchWidth:", c.FetchWidth)
	writeInt(b, " IssueWidth:", c.IssueWidth)
	writeInt(b, " CommitWidth:", c.CommitWidth)
	writeInt(b, " IntALU:", c.IntALU)
	writeInt(b, " IntMultDiv:", c.IntMultDiv)
	writeInt(b, " FPALU:", c.FPALU)
	writeInt(b, " FPMultDiv:", c.FPMultDiv)
	writeInt(b, " LoadStore:", c.LoadStore)
	writeUint(b, " MispredictPenalty:", c.MispredictPenalty)
	b.WriteByte('}')
}

// writeInt, writeUint and writeBool write a label and a value, the
// value formatted on the stack.
func writeInt(b *strings.Builder, label string, v int) {
	var num [20]byte
	b.WriteString(label)
	b.Write(strconv.AppendInt(num[:0], int64(v), 10))
}

func writeUint(b *strings.Builder, label string, v uint64) {
	var num [20]byte
	b.WriteString(label)
	b.Write(strconv.AppendUint(num[:0], v, 10))
}

func writeBool(b *strings.Builder, label string, v bool) {
	b.WriteString(label)
	b.WriteString(strconv.FormatBool(v))
}

// identity returns the workload identity and the seed as the canonical
// forms render them. A custom workload's identity is its content — the
// canonical profile serialization or the trace file's hash — never the
// Bench label or the file path: two custom workloads can only share a
// fingerprint by being the same workload. A trace replays fixed bytes;
// the seed never reaches it, so it is normalized out — rerunning a
// trace cell under a different seed list still hits the cache.
func (o Options) identity() (bench string, seed uint64) {
	bench, seed = o.Bench, o.Seed
	if o.Workload != nil {
		bench = o.Workload.identity()
		if o.Workload.TracePath != "" {
			seed = 0
		}
	}
	return bench, seed
}

// CanonicalKey is the fingerprinting hash: a stable 32-hex-digit key
// derived from a canonical string. Exposed so stores that persist a
// canonical form alongside its key can verify the pair still match.
func CanonicalKey(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:16])
}

// Fingerprint returns a stable 32-hex-digit key identifying this
// simulation configuration. It is the cache key of the campaign
// result cache: equal fingerprints mean the simulations are
// bit-identical reruns of each other.
func (o Options) Fingerprint() string {
	return CanonicalKey(o.Canonical())
}

// PrefixCanonical is the canonical form with the measured budget
// masked out: everything that shapes the simulation up to the warm-up
// boundary — workload content, seed, skip, warm-up, the full machine
// configuration — and nothing that only takes effect afterwards. Two
// Options with equal PrefixCanonical pass through bit-identical
// machine states at the warm-up boundary, which is what makes a warm
// checkpoint captured under one valid for the other.
func (o Options) PrefixCanonical() string {
	c, m := o.render()
	return m.prefix(c)
}

// CanonicalForms returns Canonical, PrefixCanonical and
// StreamCanonical from a single rendering of the options. Callers that
// need them all — a campaign plan fingerprints every cell, groups it
// by warm-up prefix and by program — pay for one formatting pass
// instead of three.
func (o Options) CanonicalForms() (canonical, prefix, stream string) {
	c, m := o.render()
	return c, m.prefix(c), streamForm(m.bench, m.seed, o.Skip)
}

// prefix masks the measured budget out of the canonical form c.
func (m marks) prefix(c string) string {
	return c[:m.insts] + "|insts=*" + c[m.warmup:]
}

// PrefixFingerprint is the warm-checkpoint grouping key: the campaign
// scheduler runs one prefix per distinct value and forks the
// measurement phase of every cell sharing it.
func (o Options) PrefixFingerprint() string {
	return CanonicalKey(o.PrefixCanonical())
}

// StreamCanonical identifies the post-skip workload cursor: the
// workload's content identity, the generator seed (normalized out for
// traces, which replay fixed bytes), and the skip count. No machine
// parameter enters it, so cells of any machine configuration that
// share it run the same program from the same point; campaigns group
// cells by it to reuse one program image.
func (o Options) StreamCanonical() string {
	bench, seed := o.identity()
	return streamForm(bench, seed, o.Skip)
}

// streamForm renders StreamCanonical from its parts.
func streamForm(bench string, seed, skip uint64) string {
	return fmt.Sprintf("v%d|stream|bench=%s|seed=%d|skip=%d", FingerprintVersion, bench, seed, skip)
}
