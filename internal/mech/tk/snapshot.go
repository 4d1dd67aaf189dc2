package tk

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"slices"

	"microlib/internal/mech/vc"
	"microlib/internal/sim"
)

// TouchEntry is one last-access record (lineAddr -> cycle), emitted in
// sorted line order so snapshots are deterministic.
type TouchEntry struct {
	Line uint64
	Last uint64
}

// CorrEntryState is one address-correlation record (victim ->
// replacement with confidence), emitted in sorted victim order.
type CorrEntryState struct {
	Victim uint64
	Repl   uint64
	Conf   int8
}

// State is the TK prefetcher's full mutable state. The pending decay
// sweep is a calendar event and travels with the engine snapshot.
type State struct {
	LastTouch     []TouchEntry
	Corr          []CorrEntryState
	PendingVictim uint64
	HaveVictim    bool
	Reads         uint64
	Writes        uint64
	Issued        uint64
	Scans         uint64
}

// touchSlice collects m into out's backing array, in line order.
func touchSlice(out []TouchEntry, m map[uint64]uint64) []TouchEntry {
	out = out[:0]
	for la, last := range m {
		out = append(out, TouchEntry{Line: la, Last: last})
	}
	slices.SortFunc(out, func(a, b TouchEntry) int { return cmp.Compare(a.Line, b.Line) })
	return out
}

// SnapState implements core.Snapshotter.
func (t *TK) SnapState(prev any) any {
	st, _ := prev.(State)
	st.LastTouch = touchSlice(st.LastTouch, t.lastTouch)
	st.PendingVictim, st.HaveVictim = t.pendingVictim, t.haveVictim
	st.Reads, st.Writes, st.Issued, st.Scans = t.reads, t.writes, t.issued, t.scans
	st.Corr = st.Corr[:0]
	for v, e := range t.corr {
		st.Corr = append(st.Corr, CorrEntryState{Victim: v, Repl: e.repl, Conf: e.conf})
	}
	slices.SortFunc(st.Corr, func(a, b CorrEntryState) int { return cmp.Compare(a.Victim, b.Victim) })
	return st
}

// RestoreState implements core.Snapshotter.
func (t *TK) RestoreState(v any) error {
	st, ok := v.(State)
	if !ok {
		return fmt.Errorf("tk: snapshot is %T, not tk.State", v)
	}
	clear(t.lastTouch)
	for _, e := range st.LastTouch {
		t.lastTouch[e.Line] = e.Last
	}
	clear(t.corr)
	for _, e := range st.Corr {
		t.corr[e.Victim] = corrInfo{repl: e.Repl, conf: e.Conf}
	}
	t.pendingVictim, t.haveVictim = st.PendingVictim, st.HaveVictim
	t.reads, t.writes, t.issued, t.scans = st.Reads, st.Writes, st.Issued, st.Scans
	return nil
}

// TKVCState is the filtered victim cache's full mutable state.
type TKVCState struct {
	VC        vc.State
	LastTouch []TouchEntry
	Filtered  uint64
}

// SnapState implements core.Snapshotter (overriding the embedded VC's).
func (t *TKVC) SnapState(prev any) any {
	p, _ := prev.(TKVCState)
	return TKVCState{
		VC:        t.VC.SnapState(p.VC).(vc.State),
		LastTouch: touchSlice(p.LastTouch, t.lastTouch),
		Filtered:  t.Filtered,
	}
}

// RestoreState implements core.Snapshotter (overriding the embedded
// VC's).
func (t *TKVC) RestoreState(v any) error {
	st, ok := v.(TKVCState)
	if !ok {
		return fmt.Errorf("tkvc: snapshot is %T, not tk.TKVCState", v)
	}
	if err := t.VC.RestoreState(st.VC); err != nil {
		return err
	}
	clear(t.lastTouch)
	for _, e := range st.LastTouch {
		t.lastTouch[e.Line] = e.Last
	}
	t.Filtered = st.Filtered
	return nil
}

func init() {
	gob.Register(State{})
	gob.Register(TKVCState{})
	sim.RegisterFunc("tk.tkFireScan", tkFireScan)
}
