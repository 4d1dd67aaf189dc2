package sim

import (
	"fmt"
	"reflect"
	"sort"
)

// This file implements the calendar side of warm-state checkpointing:
// every pending event is reduced to plain data — its cycle, its global
// sequence number, the *name* of its static Func, a symbolic reference
// per operand and the two scalar words — and rebuilt bit-identically
// from that data into a fresh (or reset) engine. Restored simulations
// replay the exact event order of a live run because both the (when,
// seq) keys and the engine's own seq counter are preserved.

// OpRef is a serializable reference to an event operand. Kind names
// the owning component family ("cache", "l1fetch", "core", ...); Idx
// disambiguates instances or pooled nodes within it. The zero OpRef
// means a nil operand.
type OpRef struct {
	Kind string
	Idx  uint64
}

// IsZero reports whether the reference is the nil-operand marker.
func (r OpRef) IsZero() bool { return r.Kind == "" && r.Idx == 0 }

var (
	funcNames  = map[uintptr]string{}
	funcByName = map[string]Func{}
)

// RegisterFunc enters a static event Func into the serialization
// registry under a stable name. Every Func that can be pending at a
// checkpoint boundary must be registered (package init functions do
// this); Snapshot fails loudly on an unregistered one. Registration is
// idempotent for the same (name, fn) pair and panics on conflicts —
// a silently remapped callback would corrupt restored runs.
func RegisterFunc(name string, fn Func) {
	if name == "" || fn == nil {
		panic("sim: RegisterFunc needs a name and a func")
	}
	p := reflect.ValueOf(fn).Pointer()
	if old, ok := funcNames[p]; ok && old != name {
		panic("sim: func already registered as " + old)
	}
	if _, taken := funcByName[name]; taken && funcNames[p] != name {
		panic("sim: duplicate func name " + name)
	}
	funcNames[p] = name
	funcByName[name] = fn
}

// EventState is one pending calendar event in serializable form.
type EventState struct {
	When uint64
	Seq  uint64
	Func string
	O1   OpRef
	O2   OpRef
	A0   uint64
	A1   uint64
}

// EngineState is the full serializable kernel state. Events are sorted
// by (When, Seq), i.e. global firing order.
type EngineState struct {
	Now       uint64
	Seq       uint64
	Base      uint64
	Scheduled uint64
	Executed  uint64
	Events    []EventState
}

// Snapshot captures every pending event. resolve maps an operand value
// to its OpRef (returning false when it does not recognize the value);
// it is never called for nil operands. Snapshot fails if any pending
// event carries an unregistered Func.
func (e *Engine) Snapshot(resolve func(any) (OpRef, bool)) (EngineState, error) {
	evs := make([]*event, 0, e.Pending())
	for i := range e.ring {
		for ev := e.ring[i].head; ev != nil; ev = ev.next {
			evs = append(evs, ev)
		}
	}
	evs = append(evs, e.overflow...)
	sort.Slice(evs, func(i, j int) bool { return overflowLess(evs[i], evs[j]) })

	out := make([]EventState, 0, len(evs))
	for _, ev := range evs {
		name, ok := funcNames[reflect.ValueOf(ev.call).Pointer()]
		if !ok {
			return EngineState{}, fmt.Errorf("sim: unregistered event func pending at cycle %d", ev.when)
		}
		es := EventState{When: ev.when, Seq: ev.seq, Func: name, A0: ev.a0, A1: ev.a1}
		if ev.o1 != nil {
			r, ok := resolve(ev.o1)
			if !ok {
				return EngineState{}, fmt.Errorf("sim: unresolvable operand %T on %s@%d", ev.o1, name, ev.when)
			}
			es.O1 = r
		}
		if ev.o2 != nil {
			r, ok := resolve(ev.o2)
			if !ok {
				return EngineState{}, fmt.Errorf("sim: unresolvable operand %T on %s@%d", ev.o2, name, ev.when)
			}
			es.O2 = r
		}
		out = append(out, es)
	}
	return EngineState{
		Now: e.now, Seq: e.seq, Base: e.base,
		Scheduled: e.scheduled, Executed: e.executed,
		Events: out,
	}, nil
}

// Restore rebuilds the calendar from a snapshot, resolving operand
// references back to live values via resolve (never called for zero
// refs). The engine is Reset first; afterwards its clock, sequence
// counter and event order are bit-identical to the snapshotted one.
func (e *Engine) Restore(st EngineState, resolve func(OpRef) (any, bool)) error {
	e.Reset()
	e.now = st.Now
	e.seq = st.Seq
	e.base = st.Base
	e.scheduled = st.Scheduled
	e.executed = st.Executed
	for i := range st.Events {
		es := &st.Events[i]
		fn, ok := funcByName[es.Func]
		if !ok {
			return fmt.Errorf("sim: snapshot references unknown func %q", es.Func)
		}
		ev := e.get()
		ev.call = fn
		ev.when = es.When
		ev.seq = es.Seq
		ev.a0, ev.a1 = es.A0, es.A1
		if !es.O1.IsZero() {
			v, ok := resolve(es.O1)
			if !ok {
				e.put(ev)
				return fmt.Errorf("sim: unresolvable ref %v on %s@%d", es.O1, es.Func, es.When)
			}
			ev.o1 = v
		}
		if !es.O2.IsZero() {
			v, ok := resolve(es.O2)
			if !ok {
				e.put(ev)
				return fmt.Errorf("sim: unresolvable ref %v on %s@%d", es.O2, es.Func, es.When)
			}
			ev.o2 = v
		}
		// Events arrive in (when, seq) order, so pushing directly
		// reproduces bucket FIFO order and a valid overflow heap.
		if ev.when < e.base+ringSize {
			e.ringPush(ev)
		} else {
			e.heapPush(ev)
		}
	}
	return nil
}

// Reset returns the engine to the zero state (cycle 0, empty calendar)
// while keeping the node freelist and slice capacities, so a reused
// engine schedules without reallocating.
func (e *Engine) Reset() {
	for i := range e.ring {
		for ev := e.ring[i].head; ev != nil; {
			next := ev.next
			e.put(ev)
			ev = next
		}
		e.ring[i] = bucket{}
	}
	for i, ev := range e.overflow {
		e.put(ev)
		e.overflow[i] = nil
	}
	e.overflow = e.overflow[:0]
	e.occ = [occWords]uint64{}
	e.ringCount = 0
	e.now, e.seq, e.base = 0, 0, 0
	e.scheduled, e.executed = 0, 0
}
