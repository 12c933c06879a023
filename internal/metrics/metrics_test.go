package metrics

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestAddGetMax(t *testing.T) {
	r := New()
	r.Add("a", 2)
	r.Add("a", 3)
	r.Max("m", 7)
	r.Max("m", 4)
	if got := r.Get("a"); got != 5 {
		t.Errorf("Get(a) = %d, want 5", got)
	}
	if got := r.GetMax("m"); got != 7 {
		t.Errorf("GetMax(m) = %d, want 7", got)
	}
	if r.Get("absent") != 0 || r.GetMax("absent") != 0 {
		t.Error("absent metrics should read 0")
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Add("a", 1) // must not panic
	r.Max("m", 1)
	r.Merge(New())
	if r.Get("a") != 0 || r.GetMax("m") != 0 || r.Snapshot() != nil {
		t.Error("nil registry should read empty")
	}
}

func TestMergeAllOrderIndependent(t *testing.T) {
	mk := func(seed int64) *Registry {
		rng := rand.New(rand.NewSource(seed))
		r := New()
		for i := 0; i < 50; i++ {
			r.Add(PhaseName(rng.Intn(5)+1), int64(rng.Intn(10)))
			r.Max("merge/depth/max", int64(rng.Intn(20)))
		}
		return r
	}
	regs := []*Registry{mk(1), mk(2), mk(3), nil, mk(4)}
	fwd := MergeAll(regs)
	rev := MergeAll([]*Registry{regs[4], nil, regs[2], regs[1], regs[0]})
	a, b := fwd.Snapshot(), rev.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("snapshot lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("metric %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestConcurrentAddsAreDeterministic(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("moe/probes", 1)
				r.Max("merge/depth/max", int64(i%13))
			}
		}()
	}
	wg.Wait()
	if got := r.Get("moe/probes"); got != 8000 {
		t.Errorf("moe/probes = %d, want 8000", got)
	}
	if got := r.GetMax("merge/depth/max"); got != 12 {
		t.Errorf("merge/depth/max = %d, want 12", got)
	}
}

func TestSnapshotSortedAndString(t *testing.T) {
	r := New()
	r.Add("b", 1)
	r.Add("a", 2)
	r.Max("a", 3)
	snap := r.Snapshot()
	want := []Metric{{Name: "a", Value: 2}, {Name: "a", Value: 3, IsMax: true}, {Name: "b", Value: 1}}
	if len(snap) != len(want) {
		t.Fatalf("snapshot = %+v", snap)
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Errorf("snapshot[%d] = %+v, want %+v", i, snap[i], want[i])
		}
	}
	s := r.String()
	if !strings.Contains(s, "(max)") || strings.Index(s, "a") > strings.Index(s, "b") {
		t.Errorf("String() = %q", s)
	}
}

func TestCanonicalNames(t *testing.T) {
	if PhaseName(7) != "awake/phase/007" {
		t.Errorf("PhaseName(7) = %q", PhaseName(7))
	}
	if StepName("find-moe") != "awake/step/find-moe" {
		t.Errorf("StepName = %q", StepName("find-moe"))
	}
	if MsgName("wire") != "msgs/type/wire" {
		t.Errorf("MsgName = %q", MsgName("wire"))
	}
}

// TestPhaseNameTable pins the table-served names to the formatted
// ones on both sides of the table's end, negative phases included.
func TestPhaseNameTable(t *testing.T) {
	for p := -3; p < 1200; p++ {
		if got, want := PhaseName(p), fmt.Sprintf("awake/phase/%03d", p); got != want {
			t.Fatalf("PhaseName(%d) = %q, want %q", p, got, want)
		}
	}
}
