package campaign

import (
	"fmt"
	"strings"

	"microlib/internal/hier"
	"microlib/internal/runner"
)

// Cell is one fully-resolved simulation of a plan. Values labels the
// cell on every axis of the table (in axis order); Opts is
// authoritative for execution and Key is the cache fingerprint of
// Opts.
type Cell struct {
	Index  int         `json:"index"`
	Values []AxisValue `json:"values"`

	Opts runner.Options `json:"-"`
	Key  string         `json:"key"`

	// prefix is the warm-up prefix identity of Opts, rendered from the
	// same canonical string as Key; zero when Opts has no warm-up.
	prefix prefixID
	// program is Opts.StreamCanonical, from the same rendering: cells
	// that share it run the same workload program from the same point.
	// Cells of one plan share the string.
	program string
}

// prefixID is one warm-up prefix: its fingerprint, the checkpoint
// grouping key, and Options.PrefixCanonical. A plan keeps the
// canonical form only for prefixes two or more cells share; a lone
// cell, which runs warm only with a checkpoint store, renders its own
// when it restores.
type prefixID struct {
	canon, key string
}

func newPrefixID(canon string) prefixID {
	return prefixID{canon: canon, key: runner.CanonicalKey(canon)}
}

// Axis returns the cell's value on a named axis ("" when the plan
// has no such axis).
func (c Cell) Axis(name string) string {
	for _, v := range c.Values {
		if v.Axis == name {
			return v.Value
		}
	}
	return ""
}

// Bench returns the cell's benchmark-axis value.
func (c Cell) Bench() string { return c.Axis(AxisBench) }

// Mech returns the cell's mechanism-axis value.
func (c Cell) Mech() string { return c.Axis(AxisMech) }

// Seed returns the cell's workload-generator seed.
func (c Cell) Seed() uint64 { return c.Opts.Seed }

// Scenario labels the sub-experiment a cell belongs to: the cell's
// values on every scenario axis (everything except benchmark,
// mechanism and seed), in axis order. Cells sharing a scenario are
// aggregated into one grid; seeds replicate within it.
func (c Cell) Scenario() string {
	var sb strings.Builder
	for _, v := range c.Values {
		if !scenarioAxis(v.Axis) {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(v.Axis)
		sb.WriteByte('=')
		sb.WriteString(v.Value)
	}
	return sb.String()
}

// scenarioValues returns the cell's coordinates on the scenario axes.
func (c Cell) scenarioValues() []AxisValue {
	var out []AxisValue
	for _, v := range c.Values {
		if scenarioAxis(v.Axis) {
			out = append(out, v)
		}
	}
	return out
}

func queueLabel(q int) string {
	if q == 0 {
		return "default"
	}
	return fmt.Sprintf("%d", q)
}

// Plan is a deterministic expansion of a Spec: the ordered
// cross-product over the axis table (benchmark outermost, selection
// innermost), with each cell's runner options fully resolved and
// fingerprinted.
type Plan struct {
	Spec  Spec
	Axes  []AxisInfo
	Cells []Cell
}

// NewPlan normalizes the spec and expands it. The same spec always
// yields the same plan, cell order and cell keys. Axis combinations
// that provably request the same simulation within one aggregation
// group — a recorded trace replayed under several seeds is the one
// such case, since a trace replays fixed bytes — collapse to their
// first cell: honest single-sample cells instead of N identical
// "replicates" with a fake zero-width confidence interval. The same
// fingerprint appearing in *different* scenarios (e.g. a baseline
// untouched by a parameter-set axis) is kept: each scenario needs
// the cell, and the result cache makes the reruns free.
func NewPlan(spec Spec) (*Plan, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	e := newExpander(&spec)

	n := 1
	for _, ax := range e.axes {
		n *= len(ax.values)
	}
	p := &Plan{Spec: spec, Cells: make([]Cell, 0, n)}
	for _, ax := range e.axes {
		info := AxisInfo{Name: ax.name, Scenario: scenarioAxis(ax.name)}
		for _, v := range ax.values {
			info.Values = append(info.Values, v.label)
		}
		p.Axes = append(p.Axes, info)
	}

	seen := map[string]bool{}
	// Cells of one prefix group share one prefixID (and its string);
	// cells of one program share one program string.
	prefixes := map[string]prefixID{}
	programs := map[string]string{}
	idx := make([]int, len(e.axes))
	for {
		opts := spec.baseOptions()
		values := make([]AxisValue, len(e.axes))
		for i, ax := range e.axes {
			v := ax.values[idx[i]]
			values[i] = AxisValue{Axis: ax.name, Value: v.label}
			if err := v.apply(&opts); err != nil {
				return nil, err
			}
			if i == e.pinAfter {
				if err := spec.applyPins(&opts); err != nil {
					return nil, err
				}
			}
		}
		// The combination of axis values can be invalid even when every
		// value passed its own field check (a swept line size may stop
		// dividing a pinned cache size). Catch it at plan time, naming
		// the cell, instead of letting a worker hit a model panic.
		if err := opts.Validate(); err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", describeValues(values), err)
		}
		canon, prefix, stream := opts.CanonicalForms()
		if s, ok := programs[stream]; ok {
			stream = s
		} else {
			programs[stream] = stream
		}
		cell := Cell{Index: len(p.Cells), Values: values, Opts: opts, Key: runner.CanonicalKey(canon), program: stream}
		if opts.Warmup > 0 {
			id, ok := prefixes[prefix]
			if !ok {
				id = newPrefixID(prefix)
				prefixes[prefix] = id
			}
			cell.prefix = id
		}
		group := cell.Scenario() + "\x00" + cell.Bench() + "\x00" + cell.Mech() + "\x00" + cell.Key
		if !seen[group] {
			seen[group] = true
			p.Cells = append(p.Cells, cell)
		}

		// Odometer increment, innermost axis fastest.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(e.axes[i].values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	shared := make(map[string]int, len(prefixes))
	for _, c := range p.Cells {
		shared[c.prefix.key]++
	}
	for i := range p.Cells {
		if id := &p.Cells[i].prefix; shared[id.key] < 2 {
			id.canon = ""
		}
	}
	return p, nil
}

// describeValues renders a cell's full coordinates for error
// messages ("bench=gzip mech=TP ...").
func describeValues(values []AxisValue) string {
	var sb strings.Builder
	for _, v := range values {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(v.Axis)
		sb.WriteByte('=')
		sb.WriteString(v.Value)
	}
	return sb.String()
}

func memoryKind(name string) hier.MemoryKind {
	k, err := hier.ParseMemoryKind(name)
	if err != nil {
		// Axis values are validated against MemoryNames by Normalize
		// before any resolver runs.
		return hier.MemSDRAM
	}
	return k
}

// Scenarios returns the distinct scenario labels of the plan, in
// first-appearance order.
func (p *Plan) Scenarios() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range p.Cells {
		s := c.Scenario()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
