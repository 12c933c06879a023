package metrics

import (
	"sync"
	"sync/atomic"
)

// Slot is the dense index of one named metric in a Tally. Slots are
// declared once, as package-level variables, with NewSlot (counters)
// or NewMaxSlot (high-water marks); the hot path then bumps an array
// entry instead of hashing a name.
type Slot uint32

// slotTable is the process-wide list of declared slots. Declaring
// takes the lock; Tally's hot path never does.
var slotTable = struct {
	mu    sync.Mutex
	names []string
	max   []bool
	index map[slotKey]Slot
}{index: map[slotKey]Slot{}}

type slotKey struct {
	name string
	max  bool
}

// NewSlot returns the slot of counter name, declaring it on first use.
// Declaring the same name twice returns the same slot.
func NewSlot(name string) Slot { return declare(name, false) }

// NewMaxSlot returns the slot of high-water mark name, declaring it on
// first use.
func NewMaxSlot(name string) Slot { return declare(name, true) }

func declare(name string, max bool) Slot {
	t := &slotTable
	t.mu.Lock()
	defer t.mu.Unlock()
	k := slotKey{name, max}
	if s, ok := t.index[k]; ok {
		return s
	}
	s := Slot(len(t.names))
	t.names = append(t.names, name)
	t.max = append(t.max, max)
	t.index[k] = s
	return s
}

// Name returns the metric name the slot was declared with.
func (s Slot) Name() string {
	slotTable.mu.Lock()
	defer slotTable.mu.Unlock()
	return slotTable.names[s]
}

// PhaseSlot returns the slot of PhaseName(p).
func PhaseSlot(p int) Slot {
	if p >= 0 && p < len(phaseSlots) {
		return phaseSlots[p]
	}
	return NewSlot(PhaseName(p))
}

// phaseSlots declares the slots of the table-served phase names.
var phaseSlots = func() (t [len(phaseNames)]Slot) {
	for p := range t {
		t[p] = NewSlot(phaseNames[p])
	}
	return t
}()

// Tally is the run-local, dense form of a Registry: one atomic cell
// per declared slot, bumped without locks or name lookups by the
// simulator and the node programs of one run, and folded into the
// run's Registry once by Flush. Concurrent use is safe (node programs
// of the goroutine engine run in parallel). A nil *Tally is a valid
// no-op sink, like a nil *Registry.
type Tally struct {
	reg   *Registry
	cells []cell
	max   []bool
}

// cell is one slot's value plus whether anything touched it, so Flush
// creates exactly the registry entries the equivalent Registry calls
// would have (an Add of 0 still creates its counter).
type cell struct {
	v    atomic.Int64
	used atomic.Bool
}

// NewTally returns a tally covering every slot declared so far that
// flushes into reg; nil when reg is nil. Slots declared later still
// count correctly, through reg directly.
func NewTally(reg *Registry) *Tally {
	if reg == nil {
		return nil
	}
	slotTable.mu.Lock()
	max := slotTable.max[:len(slotTable.max):len(slotTable.max)]
	slotTable.mu.Unlock()
	return &Tally{reg: reg, cells: make([]cell, len(max)), max: max}
}

// Add increments counter slot s by delta.
func (t *Tally) Add(s Slot, delta int64) {
	if t == nil {
		return
	}
	if int(s) >= len(t.cells) {
		t.reg.Add(s.Name(), delta)
		return
	}
	c := &t.cells[s]
	c.v.Add(delta)
	if !c.used.Load() {
		c.used.Store(true)
	}
}

// Max raises high-water mark slot s to v if v is larger. Like
// Registry.Max, a v of 0 or less never creates the mark.
func (t *Tally) Max(s Slot, v int64) {
	if t == nil || v <= 0 {
		return
	}
	if int(s) >= len(t.cells) {
		t.reg.Max(s.Name(), v)
		return
	}
	c := &t.cells[s]
	for cur := c.v.Load(); v > cur && !c.v.CompareAndSwap(cur, v); cur = c.v.Load() {
	}
	if !c.used.Load() {
		c.used.Store(true)
	}
}

// Flush folds every touched slot into the registry and resets the
// tally.
func (t *Tally) Flush() {
	if t == nil {
		return
	}
	slotTable.mu.Lock()
	names := slotTable.names[:len(t.cells)]
	slotTable.mu.Unlock()
	for s, name := range names {
		c := &t.cells[s]
		if !c.used.Load() {
			continue
		}
		if t.max[s] {
			t.reg.Max(name, c.v.Load())
		} else {
			t.reg.Add(name, c.v.Load())
		}
		c.v.Store(0)
		c.used.Store(false)
	}
}
