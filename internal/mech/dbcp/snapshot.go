package dbcp

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"slices"
)

// LiveEntry is one live-signature record (lineAddr -> signature),
// emitted in sorted line order so snapshots are deterministic.
type LiveEntry struct {
	Line uint64
	Sig  uint32
}

// CorrEntryState is one used correlation-table entry in serializable
// form: its index in the table and its contents.
type CorrEntryState struct {
	Key    uint64
	Target uint64
	Index  uint32
	Conf   int8
}

// State is the DBCP's full mutable state. Table lists only the used
// entries of the correlation table, in index order; every other entry
// is zero. A 200k-instruction warm-up uses 3-13% of the 64K entries,
// so this keeps a snapshot near a tenth of the table's 1.5 MB.
type State struct {
	Live        []LiveEntry
	TableSize   int
	Table       []CorrEntryState
	PendingKey  uint64
	HavePend    bool
	Reads       uint64
	Writes      uint64
	Issued      uint64
	Predictions uint64
}

// SnapState implements core.Snapshotter.
func (d *DBCP) SnapState(prev any) any {
	st, _ := prev.(State)
	st.PendingKey, st.HavePend = d.pendingKey, d.havePend
	st.Reads, st.Writes, st.Issued, st.Predictions = d.reads, d.writes, d.issued, d.predictions
	st.Live = slices.Grow(st.Live[:0], len(d.live))
	for la, sig := range d.live {
		st.Live = append(st.Live, LiveEntry{Line: la, Sig: sig})
	}
	slices.SortFunc(st.Live, func(a, b LiveEntry) int { return cmp.Compare(a.Line, b.Line) })
	st.TableSize = len(d.table)
	st.Table = st.Table[:0]
	for i, e := range d.table {
		if e != (corrEntry{}) {
			st.Table = append(st.Table, CorrEntryState{Key: e.key, Target: e.target, Index: uint32(i), Conf: e.conf})
		}
	}
	return st
}

// RestoreState implements core.Snapshotter.
func (d *DBCP) RestoreState(v any) error {
	st, ok := v.(State)
	if !ok {
		return fmt.Errorf("dbcp: snapshot is %T, not dbcp.State", v)
	}
	if st.TableSize != len(d.table) {
		return fmt.Errorf("dbcp: snapshot has %d table entries, config holds %d", st.TableSize, len(d.table))
	}
	clear(d.live)
	for _, e := range st.Live {
		d.live[e.Line] = e.Sig
	}
	clear(d.table)
	for _, e := range st.Table {
		if int(e.Index) >= len(d.table) {
			return fmt.Errorf("dbcp: snapshot entry index %d outside the %d-entry table", e.Index, len(d.table))
		}
		d.table[e.Index] = corrEntry{key: e.Key, target: e.Target, conf: e.Conf}
	}
	d.pendingKey, d.havePend = st.PendingKey, st.HavePend
	d.reads, d.writes, d.issued, d.predictions = st.Reads, st.Writes, st.Issued, st.Predictions
	return nil
}

func init() { gob.Register(State{}) }
