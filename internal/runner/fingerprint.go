package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
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

	// A custom workload's identity is its content — the canonical
	// profile serialization or the trace file's hash — never the
	// Bench label or the file path: two custom workloads can only
	// share a fingerprint by being the same workload.
	bench := o.Bench
	if o.Workload != nil {
		bench = o.Workload.identity()
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "v%d|bench=%s|mech=%s|params={", FingerprintVersion, bench, mech)
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s:%d", k, o.Params[k])
	}
	// Hier and CPU are plain value structs (no maps or pointers), so
	// their %+v rendering is deterministic.
	// A trace replays fixed bytes; the seed never reaches it, so it
	// is normalized out — rerunning a trace cell under a different
	// seed list still hits the cache.
	seed := o.Seed
	if o.Workload != nil && o.Workload.TracePath != "" {
		seed = 0
	}

	fmt.Fprintf(&sb, "}|hier=%+v|cpu=%+v", o.Hier, o.CPU)
	fmt.Fprintf(&sb, "|insts=%d|warmup=%d|skip=%d|seed=%d|inorder=%t|queue=%d|pfd=%t",
		insts, o.Warmup, o.Skip, seed, o.InOrder, o.QueueOverride, o.PrefetchAsDemand)
	return sb.String()
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
	return prefixOf(o.Canonical())
}

// CanonicalForms returns Canonical and PrefixCanonical from a single
// rendering of the options. Callers that need both — a campaign plan
// fingerprints every cell and groups it by warm-up prefix — pay for
// one formatting pass instead of two.
func (o Options) CanonicalForms() (canonical, prefix string) {
	c := o.Canonical()
	return c, prefixOf(c)
}

// prefixOf masks the measured budget out of a canonical form. The form
// is pipe-delimited and %+v renders no pipes, so the budget segment is
// located unambiguously.
func prefixOf(c string) string {
	i := strings.Index(c, "|insts=")
	j := i + strings.Index(c[i:], "|warmup=")
	return c[:i] + "|insts=*" + c[j:]
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
// parameter enters it — the skipped stream is consumed without
// simulation, so one cursor serves every machine configuration.
func (o Options) StreamCanonical() string {
	bench := o.Bench
	seed := o.Seed
	if o.Workload != nil {
		bench = o.Workload.identity()
		if o.Workload.TracePath != "" {
			seed = 0
		}
	}
	return fmt.Sprintf("v%d|stream|bench=%s|seed=%d|skip=%d", FingerprintVersion, bench, seed, o.Skip)
}

// StreamFingerprint is the stream-checkpoint grouping key.
func (o Options) StreamFingerprint() string {
	return CanonicalKey(o.StreamCanonical())
}
