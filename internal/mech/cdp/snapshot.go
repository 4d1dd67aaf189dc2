package cdp

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"slices"

	"microlib/internal/mech/sp"
)

// DepthEntry is one in-flight chain-depth record (lineAddr -> depth),
// emitted in sorted line order so snapshots are deterministic.
type DepthEntry struct {
	Line  uint64
	Depth int
}

// State is the CDP's full mutable state.
type State struct {
	Depth      []DepthEntry
	Scans      uint64
	Candidates uint64
	Issued     uint64
}

// SnapState implements core.Snapshotter.
func (c *CDP) SnapState(prev any) any {
	st, _ := prev.(State)
	st.Scans, st.Candidates, st.Issued = c.scans, c.candidates, c.issued
	st.Depth = st.Depth[:0]
	for la, d := range c.depth {
		st.Depth = append(st.Depth, DepthEntry{Line: la, Depth: d})
	}
	slices.SortFunc(st.Depth, func(a, b DepthEntry) int { return cmp.Compare(a.Line, b.Line) })
	return st
}

// RestoreState implements core.Snapshotter.
func (c *CDP) RestoreState(v any) error {
	st, ok := v.(State)
	if !ok {
		return fmt.Errorf("cdp: snapshot is %T, not cdp.State", v)
	}
	clear(c.depth)
	for _, e := range st.Depth {
		c.depth[e.Line] = e.Depth
	}
	c.scans, c.candidates, c.issued = st.Scans, st.Candidates, st.Issued
	return nil
}

// CombinedState is the CDPSP combination's full mutable state.
type CombinedState struct {
	CDP State
	SP  sp.State
}

// SnapState implements core.Snapshotter.
func (c *Combined) SnapState(prev any) any {
	p, _ := prev.(CombinedState)
	return CombinedState{CDP: c.CDP.SnapState(p.CDP).(State), SP: c.SP.SnapState(p.SP).(sp.State)}
}

// RestoreState implements core.Snapshotter.
func (c *Combined) RestoreState(v any) error {
	st, ok := v.(CombinedState)
	if !ok {
		return fmt.Errorf("cdpsp: snapshot is %T, not cdp.CombinedState", v)
	}
	if err := c.CDP.RestoreState(st.CDP); err != nil {
		return err
	}
	return c.SP.RestoreState(st.SP)
}

func init() {
	gob.Register(State{})
	gob.Register(CombinedState{})
}
