package ldt

import (
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/sim"
)

// TestWaveAllocsPerMessage guards the allocation cost of the LDT waves:
// once a run's fixed setup is differenced away (1 vs 11 wave pairs), a
// Broadcast + Up pair over a 16-node path fragment may cost at most 2
// heap allocations per delivered message.
func TestWaveAllocsPerMessage(t *testing.T) {
	g := graph.Path(16, graph.GenConfig{Seed: 1})
	parents := make([]int, g.N())
	for v := range parents {
		parents[v] = v - 1 // rooted at node 0
	}
	blk := BlockLen(g.N())
	var bcast, own interface{} = testPayload{v: 42}, testPayload{v: 1}
	run := func(waves int) (allocs float64, delivered int64) {
		allocs = testing.AllocsPerRun(5, func() {
			states, err := StatesFromParents(g, parents)
			if err != nil {
				t.Fatalf("states: %v", err)
			}
			res, err := sim.Run(sim.Config{Graph: g, Seed: 1}, func(nd *sim.Node) error {
				st := states[nd.Index()]
				sum := func(own interface{}, fromChildren sim.Inbox) interface{} {
					total := own.(testPayload).v
					for _, c := range st.Children {
						total += fromChildren[c].(testPayload).v
					}
					return testPayload{v: total}
				}
				for w := 0; w < waves; w++ {
					start := 1 + int64(2*w)*blk
					Broadcast(nd, st, start, bcast)
					Up(nd, st, start+blk, own, sum)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			delivered = res.MessagesDelivered
		})
		return allocs, delivered
	}
	a1, d1 := run(1)
	a11, d11 := run(11)
	if want := int64(10 * 2 * (g.N() - 1)); d11-d1 != want {
		t.Fatalf("10 extra wave pairs delivered %d messages, want %d", d11-d1, want)
	}
	perMsg := (a11 - a1) / float64(d11-d1)
	t.Logf("%.0f allocs for 10 wave pairs, %.2f per delivered message", a11-a1, perMsg)
	if perMsg > 2 {
		t.Errorf("LDT waves cost %.2f allocations per delivered message, want <= 2", perMsg)
	}
}
