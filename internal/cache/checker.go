package cache

// Checker is the MicroLib debugging device the paper describes in
// Section 2.2: because the authors' own processor model (OoOSysC)
// executes real values, "confronting the emulator with the simulator
// for every memory request is a simple but powerful debugging tool" —
// it caught, for example, a mechanism that forgot to set the dirty
// bit, so a modified line was silently dropped instead of written
// back.
//
// Checker tracks, per line, whether the cached copy has been modified
// since fill. On eviction, a modified line whose dirty bit is clear
// is exactly that class of bug, and is reported.
type Checker struct {
	// modified records lines that received a store while resident.
	modified map[uint64]bool
	// Violations lists line addresses evicted modified-but-clean.
	Violations []uint64
}

// NewChecker returns an empty checker.
func NewChecker() *Checker {
	return &Checker{modified: make(map[uint64]bool)}
}

// EnableChecker arms value checking on the cache.
func (c *Cache) EnableChecker(ch *Checker) { c.checker = ch }

func (ch *Checker) noteFill(lineAddr uint64, dirty bool) {
	ch.modified[lineAddr] = dirty
}

func (ch *Checker) noteStore(lineAddr uint64) {
	ch.modified[lineAddr] = true
}

func (ch *Checker) noteEvict(lineAddr uint64, dirty bool) {
	if ch.modified[lineAddr] && !dirty {
		ch.Violations = append(ch.Violations, lineAddr)
	}
	delete(ch.modified, lineAddr)
}

// CorruptDirtyBits is a fault-injection helper for tests: it clears
// the dirty bit of every resident line, emulating the forgotten-
// dirty-bit bug from the paper so tests can prove the checker
// catches it.
func (c *Cache) CorruptDirtyBits() {
	for i := range c.lines {
		c.lines[i].Dirty = false
	}
	clear(c.dirtyLRU)
}
