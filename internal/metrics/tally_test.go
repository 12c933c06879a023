package metrics

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestTallyMatchesRegistry replays random counter and mark updates both
// through a Tally flushed into a registry and straight into a
// registry: the two must hold exactly the same entries, including
// counters only ever added 0, marks only ever offered 0 or less (which
// create nothing), and slots declared after the tally was built.
func TestTallyMatchesRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		prefix := fmt.Sprintf("test/tally/%d/", trial)
		var counters, marks []Slot
		for i := 0; i < 6; i++ {
			counters = append(counters, NewSlot(fmt.Sprintf("%sc%d", prefix, i)))
			marks = append(marks, NewMaxSlot(fmt.Sprintf("%sm%d", prefix, i)))
		}
		counters = append(counters, PhaseSlot(rng.Intn(300)))
		reg, want := New(), New()
		tally := NewTally(reg)
		late := NewSlot(prefix + "late")
		// A counter only ever added 0 still appears; a mark only ever
		// offered 0 or less does not.
		zero, low := NewSlot(prefix+"zero"), NewMaxSlot(prefix+"low")
		tally.Add(zero, 0)
		want.Add(zero.Name(), 0)
		tally.Max(low, -int64(trial%2))
		want.Max(low.Name(), -int64(trial%2))
		for op := 0; op < 200; op++ {
			v := int64(rng.Intn(7)) - 2
			switch rng.Intn(3) {
			case 0:
				s := counters[rng.Intn(len(counters))]
				tally.Add(s, v)
				want.Add(s.Name(), v)
			case 1:
				s := marks[rng.Intn(len(marks))]
				tally.Max(s, v)
				want.Max(s.Name(), v)
			default:
				tally.Add(late, v)
				want.Add(late.Name(), v)
			}
		}
		tally.Flush()
		if got, exp := reg.String(), want.String(); got != exp {
			t.Fatalf("trial %d: tally flushed\n%s\nregistry\n%s", trial, got, exp)
		}
	}
}

// TestTallyConcurrentAdds bumps one tally from many goroutines, as the
// goroutine engine's node programs do, and checks the flushed totals.
func TestTallyConcurrentAdds(t *testing.T) {
	c, m := NewSlot("test/tally/concurrent"), NewMaxSlot("test/tally/concurrent/max")
	reg := New()
	tally := NewTally(reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tally.Add(c, 1)
				tally.Max(m, int64(g*1000+i))
			}
		}(g)
	}
	wg.Wait()
	tally.Flush()
	if got := reg.Get(c.Name()); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := reg.GetMax(m.Name()); got != 7999 {
		t.Errorf("mark = %d, want 7999", got)
	}
}

// TestNilTallyIsNoOp: a run without a registry gets a nil tally.
func TestNilTallyIsNoOp(t *testing.T) {
	tally := NewTally(nil)
	if tally != nil {
		t.Fatal("NewTally(nil) != nil")
	}
	tally.Add(NewSlot("test/tally/nil"), 1)
	tally.Max(NewMaxSlot("test/tally/nil"), 1)
	tally.Flush()
}
