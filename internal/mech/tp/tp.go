// Package tp implements Tagged Prefetching (Smith, 1982) at the L2:
// on a demand miss, or on the first demand hit to a line that was
// itself brought in by a prefetch, the next sequential line is
// prefetched. The per-line "prefetched" tag bit lives in the cache
// model; the only added hardware is the tag bit array and a 16-entry
// request queue (the paper's Table 3).
package tp

import (
	"microlib/internal/cache"
	"microlib/internal/core"
)

// TP is the tagged prefetcher.
type TP struct {
	l2       *cache.Cache
	lineSize uint64

	st State // all mutable state, snapshotted whole
}

func init() {
	core.Register(core.Description{
		Name: "TP", Level: "L2", Year: 1982,
		Summary: "Tagged Prefetching: prefetch next line on a miss or on a hit on a prefetched line",
		Params:  []string{"queue"},
	}, func(env *core.Env, p core.Params) (core.Mechanism, error) {
		t := &TP{l2: env.L2, lineSize: uint64(env.L2.Config().LineSize)}
		env.L2.SetPrefetchQueueCap(p.Get("queue", 16))
		env.L2.Attach(t)
		return t, nil
	})
}

// Name implements core.Mechanism.
func (t *TP) Name() string { return "TP" }

// OnAccess implements cache.AccessObserver: the tagged-prefetch
// trigger condition.
func (t *TP) OnAccess(ev cache.AccessEvent) {
	t.st.Reads++
	if ev.Write {
		return
	}
	if !ev.Hit || ev.PrefetchedLine {
		t.st.Triggers++
		t.st.Writes++
		t.l2.Prefetch(ev.LineAddr + t.lineSize)
	}
}

// Hardware implements core.CostModeler: one tag bit per L2 line plus
// the request queue.
func (t *TP) Hardware() []core.HWTable {
	lines := t.l2.Config().NumLines()
	return []core.HWTable{
		{Label: "tp-tagbits", Bytes: lines / 8, Assoc: 1, Ports: 1, Reads: t.st.Reads, Writes: t.st.Writes},
		{Label: "tp-queue", Bytes: 16 * 8, Assoc: 0, Ports: 1, Reads: t.st.Triggers, Writes: t.st.Triggers},
	}
}

// Triggers reports how many prefetches were requested (tests).
func (t *TP) Triggers() uint64 { return t.st.Triggers }
