package mem

import "microlib/internal/sim"

// ConstLatency is the SimpleScalar-style memory: every request
// completes a fixed number of cycles after it is accepted, with
// unlimited concurrency and no queue. This is the model most of the
// surveyed articles used (a constant 70-cycle latency).
type ConstLatency struct {
	eng     *sim.Engine
	latency uint64

	st Stats // all mutable state, snapshotted whole
}

// NewConstLatency returns a constant-latency memory.
func NewConstLatency(eng *sim.Engine, latency uint64) *ConstLatency {
	return &ConstLatency{eng: eng, latency: latency}
}

// Name implements Model.
func (m *ConstLatency) Name() string { return "const" }

// Enqueue implements Model. It always accepts.
//
//ml:hotpath
func (m *ConstLatency) Enqueue(r *Req) bool {
	if r.Write {
		m.st.Writes++
	} else {
		m.st.Reads++
		m.st.TotalReadLatency += m.latency
	}
	if r.Prefetch {
		m.st.Prefetches++
	}
	if r.Done != nil {
		m.eng.AfterFunc(m.latency, callReqDone, r.Done, nil, 0, 0)
	}
	return true
}

func callReqDone(now uint64, o1, _ any, _, _ uint64) {
	o1.(DoneSink).ReqDone(now)
}

// Stats implements Model.
func (m *ConstLatency) Stats() Stats { return m.st }
