package trace_test

import (
	"strings"
	"testing"

	"sleepmst/internal/chaos"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/trace"
)

// chaosView fabricates a run in which node 1 crashed at round 40 and
// node 2 crashed before ever waking.
func chaosView() trace.RunView {
	return trace.RunView{
		Rounds:       100,
		AwakePerNode: []int64{4, 2, 0},
		AwakeRounds:  [][]int64{{1, 2, 50, 100}, {1, 2}, {}},
		CrashRound:   []int64{0, 40, 1},
	}
}

func TestTimelineCrashMarkers(t *testing.T) {
	out := trace.Timeline(chaosView(), 10)
	if !strings.Contains(out, "'x' = crashed") {
		t.Errorf("legend missing crash marker:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	bar := func(row string) string {
		return row[strings.Index(row, "|")+1 : strings.LastIndex(row, "|")]
	}
	// Node 0 never crashed: no x anywhere.
	if strings.Contains(lines[1], "x") {
		t.Errorf("uncrashed node shows x: %q", lines[1])
	}
	// Node 1 crashed at round 40 of 100: buckets 3.. are x, awake
	// marks before that survive.
	b1 := bar(lines[2])
	if b1[0] != '#' {
		t.Errorf("node 1 lost its awake mark: %q", b1)
	}
	for i := 3; i < len(b1); i++ {
		if b1[i] != 'x' {
			t.Errorf("node 1 bucket %d = %q, want x: %q", i, b1[i], b1)
		}
	}
	if !strings.Contains(lines[2], "crashed@40") {
		t.Errorf("node 1 line missing crash note: %q", lines[2])
	}
	// Node 2 crashed before round 1 with zero awake rounds: full x
	// line, no panic.
	b2 := bar(lines[3])
	if b2 != strings.Repeat("x", len(b2)) {
		t.Errorf("node 2 bar = %q, want all x", b2)
	}
	if !strings.Contains(lines[3], "awake=0") {
		t.Errorf("node 2 line = %q", lines[3])
	}
}

// TestTimelineCrashBeyondLastRound is the regression test for the
// clamp contract: a crash scheduled past the run's last round must be
// pinned to the final column and flagged, never silently dropped.
func TestTimelineCrashBeyondLastRound(t *testing.T) {
	v := trace.RunView{
		Rounds:       10,
		AwakePerNode: []int64{1},
		AwakeRounds:  [][]int64{{1}},
		CrashRound:   []int64{25}, // scheduled past the run's end
	}
	out := trace.Timeline(v, 8)
	if !strings.Contains(out, "crashed@25 (after end)") {
		t.Errorf("missing clamped crash marker:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	row := lines[1]
	bar := row[strings.Index(row, "|")+1 : strings.LastIndex(row, "|")]
	if bar[len(bar)-1] != 'x' {
		t.Errorf("clamped crash not pinned to last column: %q", bar)
	}
	if bar[len(bar)-2] == 'x' {
		t.Errorf("clamped crash bled past the last column: %q", bar)
	}
}

func TestTimelineZeroAwakeWithoutCrash(t *testing.T) {
	v := trace.RunView{
		Rounds:       10,
		AwakePerNode: []int64{0, 1},
		AwakeRounds:  [][]int64{{}, {3}},
	}
	out := trace.Timeline(v, 8) // must not panic
	if !strings.Contains(out, "awake=0") {
		t.Errorf("zero-awake node missing:\n%s", out)
	}
}

// TestTimelineFromChaosRun drives a real crashed run end to end
// through the simulator and the renderer.
func TestTimelineFromChaosRun(t *testing.T) {
	g := graph.RandomConnected(16, 40, graph.GenConfig{Seed: 3})
	policy := chaos.New(chaos.Options{Seed: 1, Crash: []chaos.CrashEvent{{Node: 2, Round: 4}}})
	out, err := core.RunRandomized(g, core.Options{
		Seed:              1,
		RecordAwakeRounds: true,
		Interceptor:       policy,
	})
	if err == nil {
		t.Skip("crash did not prevent convergence on this topology")
	}
	if out == nil || out.Result == nil {
		t.Skip("run failed before producing metrics")
	}
	text := trace.Timeline(out.Result.TraceView(), 40)
	if !strings.Contains(text, "crashed@4") {
		t.Errorf("timeline missing crash marker:\n%s", text)
	}
}

// TestEventsMatchReferenceChaosDelay checks the canonical order of a
// real recorded run against the five-field reference order, on a run
// whose delayed message copies make lost events land out of round
// order in the scheduler stream, at a capacity small enough to evict.
func TestEventsMatchReferenceChaosDelay(t *testing.T) {
	g := graph.RandomConnected(24, 60, graph.GenConfig{Seed: 5})
	for _, capacity := range []int{0, 256} {
		rec := trace.NewRecorder(capacity)
		core.RunRandomized(g, core.Options{ // a faulted run may fail; its trace is what counts
			Seed:        2,
			Trace:       rec,
			Interceptor: chaos.New(chaos.Options{Seed: 3, DelayRate: 0.2}),
		})
		if err := trace.CheckStreams(rec); err != nil {
			t.Fatal(err)
		}
		got, want := rec.Events(), trace.ReferenceEvents(rec)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("capacity %d: Events returned %d events, reference %d", capacity, len(got), len(want))
		}
		late := false
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("capacity %d: event %d: Events gives %v, reference %v", capacity, i, got[i], want[i])
			}
			late = late || want[i].Kind == trace.KindLost
		}
		if !late {
			t.Errorf("capacity %d: the delay run lost no message copy", capacity)
		}
		if capacity > 0 && rec.Dropped() == 0 {
			t.Errorf("capacity %d: no event was evicted", capacity)
		}
	}
}
