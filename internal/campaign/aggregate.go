package campaign

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"microlib/internal/runner"
	"microlib/internal/stats"
)

// RankEntry is one mechanism's standing within a scenario.
type RankEntry struct {
	Rank int    `json:"rank"`
	Mech string `json:"mech"`
	// MeanSpeedup is the mean over benchmarks of per-benchmark
	// speedup vs Base; 0 when the scenario has no baseline column.
	MeanSpeedup float64 `json:"mean_speedup,omitempty"`
	MeanIPC     float64 `json:"mean_ipc"`
}

// Scenario aggregates the cells sharing one point on every scenario
// axis (hierarchy variant, memory model, core, queue override,
// parameter set, selection policy, budgets): a benchmark × mechanism
// grid of mean IPC over seeds, the per-cell 95% confidence
// half-widths, the speedup grid vs Base when a baseline column
// exists, and the mechanism ranking.
type Scenario struct {
	Label string `json:"label"`
	// Values are the scenario's coordinates on the plan's scenario
	// axes, in axis order (the Label is their rendered form).
	Values []AxisValue `json:"values,omitempty"`
	// Seeds is the replication factor (number of seeds swept).
	Seeds int         `json:"seeds"`
	Mean  *stats.Grid `json:"mean_ipc"`
	CI    *stats.Grid `json:"ci95"`
	// Counts holds the number of measurements behind each cell; 0
	// marks a cell with no data (its Mean/CI entries are meaningless).
	Counts *stats.Grid `json:"counts"`
	// Speedup and Ranking are only computed for complete scenarios
	// (no missing or failed cells) — a partial grid would silently
	// skew the mechanism means.
	Speedup *stats.Grid `json:"speedup,omitempty"`
	Ranking []RankEntry `json:"ranking,omitempty"`
	// Missing counts cells with no result (campaign canceled before
	// they ran); Failed lists cells whose simulation errored.
	Missing int      `json:"missing,omitempty"`
	Failed  []string `json:"failed,omitempty"`
	// Refusals sums cache-refusal pressure over the scenario's
	// completed cells (zero for results cached before the counters
	// existed).
	Refusals RefusalStats `json:"refusals,omitzero"`
}

// Complete reports whether every cell of the scenario has a
// measurement.
func (sc *Scenario) Complete() bool { return sc.Missing == 0 && len(sc.Failed) == 0 }

// Value returns the scenario's coordinate on a named axis ("" when
// the plan has no such axis).
func (sc *Scenario) Value(axis string) string {
	for _, v := range sc.Values {
		if v.Axis == axis {
			return v.Value
		}
	}
	return ""
}

// Summary is the aggregated outcome of a campaign run.
type Summary struct {
	Name            string         `json:"name"`
	PlanFingerprint string         `json:"plan_fingerprint"`
	Spec            Spec           `json:"spec"`
	Scenarios       []Scenario     `json:"scenarios"`
	Sched           SchedulerStats `json:"scheduler"`
}

// Find returns the first scenario whose coordinates include
// axis=value, or nil when no scenario matches. Figure formatters use
// it to pick the arm of a study by the axis the spec sweeps.
func (s *Summary) Find(axis, value string) *Scenario {
	for i := range s.Scenarios {
		if s.Scenarios[i].Value(axis) == value {
			return &s.Scenarios[i]
		}
	}
	return nil
}

// Aggregate folds per-cell results into per-scenario grids and
// rankings. Cells absent from results (canceled) or failed are
// excluded from the statistics and reported per scenario.
func Aggregate(p *Plan, results map[string]CellResult, sched SchedulerStats) *Summary {
	sum := &Summary{
		Name:            p.Spec.Name,
		PlanFingerprint: p.Fingerprint(),
		Spec:            p.Spec,
		Sched:           sched,
	}

	byScenario := map[string][]Cell{}
	for _, c := range p.Cells {
		byScenario[c.Scenario()] = append(byScenario[c.Scenario()], c)
	}

	for _, label := range p.Scenarios() {
		cells := byScenario[label]
		sc := Scenario{
			Label:  label,
			Values: cells[0].scenarioValues(),
			Seeds:  len(p.Spec.Seeds),
			Mean:   stats.NewGrid(p.Spec.Benchmarks, p.Spec.Mechanisms),
			CI:     stats.NewGrid(p.Spec.Benchmarks, p.Spec.Mechanisms),
			Counts: stats.NewGrid(p.Spec.Benchmarks, p.Spec.Mechanisms),
		}

		samples := map[[2]string][]float64{}
		for _, c := range cells {
			res, ok := results[c.Key]
			switch {
			case !ok:
				sc.Missing++
			case res.Err != "":
				sc.Failed = append(sc.Failed, fmt.Sprintf("%s/%s seed=%d: %s", c.Bench(), c.Mech(), c.Seed(), res.Err))
			default:
				k := [2]string{c.Bench(), c.Mech()}
				samples[k] = append(samples[k], res.IPC)
				sc.Refusals.add(res.Refusals)
			}
		}
		//ml:commutative -- each key writes its own pre-dimensioned grid cell; no cross-key state
		for k, xs := range samples {
			s := stats.Summarize(xs)
			sc.Mean.Set(k[0], k[1], s.Mean)
			sc.CI.Set(k[0], k[1], s.CI95)
			sc.Counts.Set(k[0], k[1], float64(s.N))
		}
		sort.Strings(sc.Failed)

		if sc.Complete() {
			if sc.Mean.MechIndex(runner.BaseName) >= 0 {
				sc.Speedup = sc.Mean.Speedups(runner.BaseName)
			}
			sc.Ranking = ranking(sc.Mean, sc.Speedup)
		}
		sum.Scenarios = append(sum.Scenarios, sc)
	}
	return sum
}

// ranking orders mechanisms by mean speedup when a baseline exists,
// by mean IPC otherwise. The baseline itself is not ranked.
func ranking(mean, speedup *stats.Grid) []RankEntry {
	meanIPC := mean.MeanPerMech()
	var meanSp []float64
	if speedup != nil {
		meanSp = speedup.MeanPerMech()
	}
	var entries []RankEntry
	for m, name := range mean.Mechs {
		if speedup != nil && name == runner.BaseName {
			continue
		}
		e := RankEntry{Mech: name, MeanIPC: meanIPC[m]}
		if meanSp != nil {
			e.MeanSpeedup = meanSp[m]
		}
		entries = append(entries, e)
	}
	sort.SliceStable(entries, func(a, b int) bool {
		if speedup != nil {
			return entries[a].MeanSpeedup > entries[b].MeanSpeedup
		}
		return entries[a].MeanIPC > entries[b].MeanIPC
	})
	for i := range entries {
		entries[i].Rank = i + 1
	}
	return entries
}

// Text renders the summary as the mlcampaign report: per scenario a
// mean-IPC grid, confidence half-widths when seeds replicate, the
// speedup ranking, and the scheduler counters.
func (s *Summary) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign %q  plan=%s\n", s.Name, s.PlanFingerprint)
	fmt.Fprintf(&sb, "cells: total=%d completed=%d cache-hits=%d simulated=%d errors=%d\n",
		s.Sched.Total, s.Sched.Completed, s.Sched.CacheHits, s.Sched.Simulated, s.Sched.Errors)
	if w := s.Sched.warmText(); w != "" {
		fmt.Fprintf(&sb, "warm:  %s\n", w)
	}
	for _, sc := range s.Scenarios {
		fmt.Fprintf(&sb, "\n== scenario %s (seeds=%d) ==\n", sc.Label, sc.Seeds)
		if sc.Missing > 0 {
			fmt.Fprintf(&sb, "!! %d cells missing (campaign interrupted; rerun with the same -cache to resume)\n", sc.Missing)
		}
		for _, f := range sc.Failed {
			fmt.Fprintf(&sb, "!! failed: %s\n", f)
		}
		if r := sc.Refusals; r.Total() > 0 {
			fmt.Fprintf(&sb, "refusal pressure: port=%d stall=%d mshr=%d (core retries: port=%d stall=%d mshr=%d)\n",
				r.RejectPort, r.RejectStall, r.RejectMSHR, r.RetryPort, r.RetryStall, r.RetryMSHR)
		}
		sb.WriteString("mean IPC\n")
		sb.WriteString(formatMasked(sc.Mean, sc.Counts, 4))
		if sc.Seeds > 1 {
			sb.WriteString("95% confidence half-width\n")
			sb.WriteString(formatMasked(sc.CI, sc.Counts, 4))
		}
		switch {
		case !sc.Complete():
			fmt.Fprintf(&sb, "ranking suppressed: %d cells missing, %d failed (a partial grid would skew the means)\n",
				sc.Missing, len(sc.Failed))
		case sc.Speedup != nil:
			sb.WriteString("ranking (mean speedup vs Base)\n")
			for _, e := range sc.Ranking {
				fmt.Fprintf(&sb, "%2d. %-8s %.4f (IPC %.4f)\n", e.Rank, e.Mech, e.MeanSpeedup, e.MeanIPC)
			}
		default:
			sb.WriteString("ranking (mean IPC; no Base column for speedups)\n")
			for _, e := range sc.Ranking {
				fmt.Fprintf(&sb, "%2d. %-8s %.4f\n", e.Rank, e.Mech, e.MeanIPC)
			}
		}
	}
	return sb.String()
}

// formatMasked renders a grid like stats.Grid.FormatTable but prints
// "-" for cells without any measurement instead of a fake 0.
func formatMasked(g, counts *stats.Grid, prec int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s", "bench")
	for _, m := range g.Mechs {
		fmt.Fprintf(&sb, " %8s", m)
	}
	sb.WriteByte('\n')
	for b, row := range g.Values {
		fmt.Fprintf(&sb, "%-10s", g.Benchmarks[b])
		for m, v := range row {
			if counts.Values[b][m] == 0 {
				fmt.Fprintf(&sb, " %8s", "-")
			} else {
				fmt.Fprintf(&sb, " %8.*f", prec, v)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CSV renders one row per scenario cell:
// scenario,bench,mech,n,mean_ipc,ci95,speedup. Cells without any
// measurement (interrupted campaign) leave the numeric columns
// empty rather than printing a fake 0.
func (s *Summary) CSV() string {
	var sb strings.Builder
	sb.WriteString("scenario,bench,mech,n,mean_ipc,ci95,speedup\n")
	for _, sc := range s.Scenarios {
		for bi, bench := range sc.Mean.Benchmarks {
			for mi, mech := range sc.Mean.Mechs {
				n := int(sc.Counts.Values[bi][mi])
				if n == 0 {
					fmt.Fprintf(&sb, "%q,%s,%s,0,,,\n", sc.Label, bench, mech)
					continue
				}
				sp := ""
				if sc.Speedup != nil {
					sp = fmt.Sprintf("%.6f", sc.Speedup.Values[bi][mi])
				}
				fmt.Fprintf(&sb, "%q,%s,%s,%d,%.6f,%.6f,%s\n",
					sc.Label, bench, mech, n,
					sc.Mean.Values[bi][mi], sc.CI.Values[bi][mi], sp)
			}
		}
	}
	return sb.String()
}

// JSON renders the summary (spec, grids, rankings, scheduler
// counters) as indented JSON.
func (s *Summary) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
