package sim

import (
	"errors"
	"strings"
	"testing"

	"sleepmst/internal/graph"
)

func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	return graph.Path(n, graph.GenConfig{Seed: 1})
}

func TestExchangeDeliversBetweenAwakeNeighbors(t *testing.T) {
	g := pathGraph(t, 2)
	res, err := Run(Config{Graph: g, Seed: 1}, func(nd *Node) error {
		in := nd.Exchange(Outbox{0: nd.Index()})
		got := in[0]
		if got == nil {
			t.Errorf("node %d: no message received", nd.Index())
			return nil
		}
		want := 1 - nd.Index()
		if got != want {
			t.Errorf("node %d: got %v, want %v", nd.Index(), got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.MessagesDelivered != 2 || res.MessagesLost != 0 {
		t.Errorf("delivered=%d lost=%d, want 2/0", res.MessagesDelivered, res.MessagesLost)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
}

func TestSleepingNodeLosesMessages(t *testing.T) {
	g := pathGraph(t, 2)
	res, err := Run(Config{Graph: g, Seed: 1}, func(nd *Node) error {
		if nd.Index() == 0 {
			nd.Exchange(Outbox{0: "hello"}) // round 1: node 1 is asleep
			return nil
		}
		nd.SleepUntil(2)
		in := nd.Exchange(nil)
		if in[0] != nil {
			t.Errorf("sleeping node received %v, want nothing", in)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.MessagesLost != 1 {
		t.Errorf("lost = %d, want 1", res.MessagesLost)
	}
	if res.AwakePerNode[0] != 1 || res.AwakePerNode[1] != 1 {
		t.Errorf("awake = %v, want [1 1]", res.AwakePerNode)
	}
}

func TestEmptyRoundsAreSkipped(t *testing.T) {
	g := pathGraph(t, 3)
	const far = int64(1_000_000_000)
	res, err := Run(Config{Graph: g, Seed: 1}, func(nd *Node) error {
		nd.SleepUntil(far)
		nd.Exchange(nil)
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Rounds != far {
		t.Errorf("rounds = %d, want %d", res.Rounds, far)
	}
	if res.BusyRounds != 1 {
		t.Errorf("busy rounds = %d, want 1", res.BusyRounds)
	}
}

func TestRoundCounterAndAwakeAccounting(t *testing.T) {
	g := pathGraph(t, 2)
	res, err := Run(Config{Graph: g, Seed: 1, RecordAwakeRounds: true}, func(nd *Node) error {
		nd.Exchange(nil) // round 1
		nd.SleepUntil(5)
		nd.Exchange(nil) // round 5
		nd.Exchange(nil) // round 6
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := res.MaxAwake(); got != 3 {
		t.Errorf("max awake = %d, want 3", got)
	}
	if res.Rounds != 6 {
		t.Errorf("rounds = %d, want 6", res.Rounds)
	}
	want := []int64{1, 5, 6}
	for i, rounds := range res.AwakeRounds {
		if len(rounds) != 3 || rounds[0] != want[0] || rounds[1] != want[1] || rounds[2] != want[2] {
			t.Errorf("node %d awake rounds = %v, want %v", i, rounds, want)
		}
	}
	if res.HaltRound[0] != 6 {
		t.Errorf("halt round = %d, want 6", res.HaltRound[0])
	}
}

func TestNodeErrorAbortsRun(t *testing.T) {
	g := pathGraph(t, 3)
	boom := errors.New("boom")
	_, err := Run(Config{Graph: g, Seed: 1}, func(nd *Node) error {
		if nd.Index() == 1 {
			return boom
		}
		for {
			nd.Exchange(nil)
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestNodePanicIsReported(t *testing.T) {
	g := pathGraph(t, 2)
	_, err := Run(Config{Graph: g, Seed: 1}, func(nd *Node) error {
		if nd.Index() == 0 {
			panic("kaboom")
		}
		nd.Exchange(nil)
		nd.Exchange(nil)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic report", err)
	}
}

func TestMaxRoundsCap(t *testing.T) {
	g := pathGraph(t, 2)
	_, err := Run(Config{Graph: g, Seed: 1, MaxRounds: 10}, func(nd *Node) error {
		nd.SleepUntil(11)
		nd.Exchange(nil)
		return nil
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
}

type sizedMsg struct{ bits int }

func (m sizedMsg) Bits() int { return m.bits }

func TestBitCapEnforced(t *testing.T) {
	g := pathGraph(t, 2)
	_, err := Run(Config{Graph: g, Seed: 1, BitCap: 32}, func(nd *Node) error {
		nd.Exchange(Outbox{0: sizedMsg{bits: 64}})
		return nil
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted on oversized message", err)
	}
}

func TestBitMetering(t *testing.T) {
	g := pathGraph(t, 2)
	res, err := Run(Config{Graph: g, Seed: 1}, func(nd *Node) error {
		if nd.Index() == 0 {
			nd.Exchange(Outbox{0: sizedMsg{bits: 17}})
			return nil
		}
		nd.Exchange(nil)
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.BitsSent != 17 {
		t.Errorf("bits sent = %d, want 17", res.BitsSent)
	}
	if res.BitsReceivedPerNode[1] != 17 || res.BitsReceivedPerNode[0] != 0 {
		t.Errorf("bits received = %v, want [0 17]", res.BitsReceivedPerNode)
	}
	if res.MaxBitsReceived() != 17 {
		t.Errorf("max bits received = %d, want 17", res.MaxBitsReceived())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := graph.RandomConnected(40, 80, graph.GenConfig{Seed: 7})
	run := func() []int64 {
		res, err := Run(Config{Graph: g, Seed: 42}, func(nd *Node) error {
			// Random sleep pattern driven by the node's private RNG.
			for i := 0; i < 5; i++ {
				nd.SleepUntil(nd.Round() + int64(nd.Rand().Intn(10)))
				nd.Exchange(Outbox{0: nd.Rand().Int63()})
			}
			return nil
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		out := append([]int64{res.Rounds, res.MessagesDelivered, res.MessagesLost}, res.AwakePerNode...)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSleepUntilPastPanics(t *testing.T) {
	g := pathGraph(t, 2)
	_, err := Run(Config{Graph: g, Seed: 1}, func(nd *Node) error {
		nd.Exchange(nil) // now positioned before round 2
		nd.SleepUntil(1) // must panic
		return nil
	})
	if err == nil {
		t.Fatal("want error from SleepUntil in the past")
	}
}

func TestInvalidPortPanics(t *testing.T) {
	g := pathGraph(t, 2)
	_, err := Run(Config{Graph: g, Seed: 1}, func(nd *Node) error {
		nd.Exchange(Outbox{5: "x"})
		return nil
	})
	if err == nil {
		t.Fatal("want error from invalid port")
	}
}

func TestNodeAccessors(t *testing.T) {
	g := graph.Star(5, graph.GenConfig{Seed: 3})
	_, err := Run(Config{Graph: g, Seed: 1}, func(nd *Node) error {
		if nd.N() != 5 {
			t.Errorf("N = %d, want 5", nd.N())
		}
		if nd.MaxID() != 5 {
			t.Errorf("MaxID = %d, want 5", nd.MaxID())
		}
		if nd.ID() != int64(nd.Index()+1) {
			t.Errorf("ID = %d, want %d", nd.ID(), nd.Index()+1)
		}
		wantDeg := 1
		if nd.Index() == 0 {
			wantDeg = 4
		}
		if nd.Degree() != wantDeg {
			t.Errorf("degree = %d, want %d", nd.Degree(), wantDeg)
		}
		for p := 0; p < nd.Degree(); p++ {
			if nd.PortWeight(p) <= 0 {
				t.Errorf("port %d weight = %d, want positive", p, nd.PortWeight(p))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestAwakeBudgetEnforced(t *testing.T) {
	g := pathGraph(t, 2)
	_, err := Run(Config{Graph: g, Seed: 1, AwakeBudget: 3}, func(nd *Node) error {
		for i := 0; i < 10; i++ {
			nd.Exchange(nil)
		}
		return nil
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted on awake budget", err)
	}
}

func TestAwakeBudgetNotTriggeredWithinLimit(t *testing.T) {
	g := pathGraph(t, 2)
	res, err := Run(Config{Graph: g, Seed: 1, AwakeBudget: 10}, func(nd *Node) error {
		for i := 0; i < 10; i++ {
			nd.Exchange(nil)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.MaxAwake() != 10 {
		t.Errorf("awake = %d, want 10", res.MaxAwake())
	}
}
