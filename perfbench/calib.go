package main

import (
	"runtime"
	"time"
)

// Host-speed adjustment.
//
// The benchmark runs on shared hosts whose speed drifts by tens of
// percent over minutes — clock frequency and cache contention follow
// the other tenants' load — far more than the repetitions inside one
// run disagree. Every timed repetition is therefore bracketed by a
// fixed calibration loop, and end-to-end host times are reported
// scaled to a nominal host speed:
//
//	adjusted = raw × calibNominal / calib
//
// where calib is the mean of the loop's times just before and just
// after the repetition. The loop is a serial xorshift chain, so its
// time follows the core clock, which carries most of the drift; it
// runs none of the simulator's code, so a change to the program moves
// adjusted times exactly as much as raw ones. Raw times stay in the
// run's report file.

// calibIters is the calibration loop's length.
const calibIters = 80_000_000

// calibNominal is the loop's time on the host the bounds were set on
// (a 2-vCPU Intel Xeon VM): adjusted times read as seconds there.
const calibNominal = 190 * time.Millisecond

// calibSink keeps the loop's result live.
var calibSink uint64

// calibrate collects garbage left by the previous repetition, so the
// collector does not run beside the loop, and times the loop once.
func calibrate() time.Duration {
	runtime.GC()
	start := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return time.Since(start)
}

// hostSpeed tracks the calibration loop across a run.
type hostSpeed struct {
	last    time.Duration
	samples []float64 // every calibration, in ms
}

// newHostSpeed calibrates twice and keeps the second: the first pays
// for the core's clock ramping up.
func newHostSpeed() *hostSpeed {
	calibrate()
	h := &hostSpeed{}
	h.next()
	return h
}

// next calibrates again and returns the factor that adjusts a time
// measured since the previous calibration.
func (h *hostSpeed) next() float64 {
	prev := h.last
	h.last = calibrate()
	h.samples = append(h.samples, float64(h.last)/1e6)
	if prev == 0 {
		return 1
	}
	return adjustFactor(prev, h.last)
}

// adjustFactor scales a time measured between two calibrations that
// took before and after to the nominal host speed.
func adjustFactor(before, after time.Duration) float64 {
	return float64(calibNominal) / (float64(before+after) / 2)
}
