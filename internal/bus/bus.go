// Package bus models the two interconnects of the Table 1 system:
// the L1/L2 bus (32 bytes wide at the 2 GHz core clock) and the
// front-side bus to memory (64 bytes wide at 400 MHz). A bus is a
// simple serially-occupied resource: a transfer holds it for
// ceil(bytes/width) bus cycles, expressed in CPU cycles.
package bus

// Bus is a single shared interconnect. The zero value is unusable;
// construct with New.
type Bus struct {
	name              string
	widthBytes        uint64
	cpuCyclesPerCycle uint64

	st State // all mutable state, snapshotted whole
}

// New builds a bus. widthBytes is the per-bus-cycle payload and
// cpuCyclesPerCycle converts bus cycles to CPU cycles (e.g. 5 for a
// 400 MHz bus under a 2 GHz core).
func New(name string, widthBytes, cpuCyclesPerCycle uint64) *Bus {
	if widthBytes == 0 || cpuCyclesPerCycle == 0 {
		panic("bus: invalid geometry")
	}
	return &Bus{name: name, widthBytes: widthBytes, cpuCyclesPerCycle: cpuCyclesPerCycle}
}

// Name returns the bus label.
func (b *Bus) Name() string { return b.name }

// TransferCycles returns the occupancy, in CPU cycles, of moving
// nbytes across the bus.
func (b *Bus) TransferCycles(nbytes uint64) uint64 {
	cycles := (nbytes + b.widthBytes - 1) / b.widthBytes
	if cycles == 0 {
		cycles = 1
	}
	return cycles * b.cpuCyclesPerCycle
}

// Reserve books the bus for a transfer of nbytes starting no earlier
// than now, returning the cycle at which the transfer completes. The
// caller observes the wait implicitly through the returned time.
//
//ml:hotpath
func (b *Bus) Reserve(now, nbytes uint64) (done uint64) {
	start := now
	if b.st.FreeAt > start {
		start = b.st.FreeAt
	}
	b.st.WaitCycles += start - now
	occ := b.TransferCycles(nbytes)
	b.st.FreeAt = start + occ
	b.st.Transfers++
	b.st.BusyCycles += occ
	return b.st.FreeAt
}

// Busy reports whether the bus is occupied at the given cycle.
func (b *Bus) Busy(now uint64) bool { return b.st.FreeAt > now }

// FreeAt returns the cycle the bus next becomes free.
func (b *Bus) FreeAt() uint64 { return b.st.FreeAt }

// Stats returns cumulative counters: completed transfers, total busy
// CPU cycles, and total CPU cycles requests spent waiting for the
// bus.
func (b *Bus) Stats() (transfers, busyCycles, waitCycles uint64) {
	return b.st.Transfers, b.st.BusyCycles, b.st.WaitCycles
}
