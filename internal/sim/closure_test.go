package sim

// runClosure is the event Func behind at/after: o1 carries the
// closure to call.
func runClosure(_ uint64, o1, _ any, _, _ uint64) { o1.(func())() }

// at schedules fn at cycle through AtFunc, so tests can write
// closure-style events against the kernel's only scheduling path.
func at(eng *Engine, cycle uint64, fn func()) { eng.AtFunc(cycle, runClosure, fn, nil, 0, 0) }

// after is at(eng, Now()+delay, fn).
func after(eng *Engine, delay uint64, fn func()) { at(eng, eng.Now()+delay, fn) }
