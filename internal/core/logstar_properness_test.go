package core

import (
	"sort"
	"testing"

	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/sim"
)

// TestLogStarColoringProperness runs exactly the step-(i) + coloring
// prefix of one LogStar phase and asserts that the palette coloring is
// proper on the supergraph G'. Regression: a mutual MOE accepted in
// only one direction used to be left uncovered by the CV forest,
// letting two adjacent fragments both turn Blue and merge into each
// other (seed 128000 reproduces that instance).
func TestLogStarColoringProperness(t *testing.T) {
	g := graph.RandomConnected(128, 384, graph.GenConfig{Seed: 128000})
	states := ldt.SingletonStates(g)
	colors := make([]Color, g.N())
	nbrs := make([]nbrList, g.N())
	type orient struct {
		owner, outAcc, mutual bool
		target                int64
	}
	orients := make([]orient, g.N())

	_, err := sim.Run(sim.Config{Graph: g, Seed: 0}, func(nd *sim.Node) error {
		c := newNodeCtx(nd, states[nd.Index()])
		bs := func(b int64) int64 { return 1 + b*c.blk }
		c.taFragment(bs(dbTAFrag))
		moe := c.upcastMOE(bs(dbUpMOE))
		var rootMsg *bcastMOEMsg
		if c.st.IsRoot() {
			rootMsg = &bcastMOEMsg{}
			if moe != nil {
				rootMsg.exists = true
				rootMsg.moe = *moe
			}
		}
		ph := c.broadcastMOE(bs(dbBcastMOE), rootMsg)
		if !ph.exists {
			return nil
		}
		owner := c.isMOEOwner(&ph.moe)
		out := make(sim.Outbox, c.nd.Degree())
		for p := 0; p < c.nd.Degree(); p++ {
			out[p] = taMOEMsg{fragID: c.st.FragID, isMOE: owner && p == ph.moe.ownerPort}
		}
		in := ldt.TransmitAdjacent(c.nd, bs(dbTAMOE), out)
		var incomingPorts []int
		incFrag := make(map[int]int64)
		mutualMOE := false
		for p := 0; p < c.nd.Degree(); p++ {
			raw := in[p]
			if raw == nil {
				continue
			}
			msg := raw.(taMOEMsg)
			if msg.isMOE && msg.fragID != c.st.FragID {
				incomingPorts = append(incomingPorts, p)
				incFrag[p] = msg.fragID
				if owner && p == ph.moe.ownerPort {
					mutualMOE = true
				}
			}
		}
		sort.Ints(incomingPorts)
		childCount := make(map[int]int64)
		total := ldt.Up(c.nd, c.st, bs(dbUpCount), intPayload(len(incomingPorts)),
			func(own interface{}, fromChildren sim.Inbox) interface{} {
				sum := int64(own.(intPayload))
				for _, port := range c.st.Children {
					v := fromChildren[port]
					if v == nil {
						continue
					}
					cnt := int64(v.(intPayload))
					childCount[port] = cnt
					sum += cnt
				}
				return intPayload(sum)
			})
		budget := int64(total.(intPayload))
		if budget > MaxValidIncomingMOEs {
			budget = MaxValidIncomingMOEs
		}
		validIn := make(map[int]bool, len(incomingPorts))
		ldt.Down(c.nd, c.st, bs(dbDownToken), intPayload(budget),
			func(received interface{}, outs sim.Outbox) {
				var b int64
				if received != nil {
					b = int64(received.(intPayload))
				}
				for _, p := range incomingPorts {
					if b == 0 {
						break
					}
					validIn[p] = true
					b--
				}
				for _, child := range c.st.Children {
					if b == 0 {
						break
					}
					give := childCount[child]
					if give > b {
						give = b
					}
					if give > 0 {
						outs[child] = intPayload(give)
						b -= give
					}
				}
			})
		taOut := make(sim.Outbox, c.nd.Degree())
		for _, p := range incomingPorts {
			taOut[p] = validMsg{accepted: validIn[p]}
		}
		outAccepted := false
		var myEntries []nbrEntry
		if len(incomingPorts) > 0 || owner {
			vin := ldt.TransmitAdjacent(c.nd, bs(dbTAValid), taOut)
			if owner {
				if raw := vin[ph.moe.ownerPort]; raw != nil && raw.(validMsg).accepted {
					outAccepted = true
					myEntries = append(myEntries, nbrEntry{
						fragID:   c.nbrFragID[ph.moe.ownerPort],
						hostID:   c.nd.ID(),
						hostPort: ph.moe.ownerPort,
					})
				}
			}
		}
		for _, p := range incomingPorts {
			if validIn[p] {
				myEntries = append(myEntries, nbrEntry{fragID: incFrag[p], hostID: c.nd.ID(), hostPort: p})
			}
		}
		agg := ldt.Up(c.nd, c.st, bs(dbUpNbr), nbrList(myEntries),
			func(own interface{}, fromChildren sim.Inbox) interface{} {
				lists := [][]nbrEntry{own.(nbrList)}
				for _, child := range c.st.Children {
					if v := fromChildren[child]; v != nil {
						lists = append(lists, v.(nbrList))
					}
				}
				return mergeEntries(lists...)
			})
		var bcastPayload interface{}
		if c.st.IsRoot() {
			bcastPayload = agg.(nbrList)
		}
		nbrInfo := ldt.Broadcast(c.nd, c.st, bs(dbBcastNbr), bcastPayload).(nbrList)
		ownerPort := -1
		if owner {
			ownerPort = ph.moe.ownerPort
		}
		if owner {
			orients[nd.Index()] = orient{owner: true, outAcc: outAccepted, mutual: mutualMOE,
				target: c.nbrFragID[ph.moe.ownerPort]}
		}
		inAccepted := owner && validIn[ownerPort]
		col := c.logStarColoring(bs, nbrInfo, owner, ownerPort, outAccepted, mutualMOE, inAccepted)
		colors[nd.Index()] = col
		nbrs[nd.Index()] = nbrInfo
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Check palette properness over G': for every entry (edge), the two
	// fragments' colors must differ.
	fragColor := map[int64]Color{}
	for v := range colors {
		fragColor[states[v].FragID] = colors[v]
	}
	bad := 0
	for v, list := range nbrs {
		for _, e := range list {
			mine := fragColor[states[v].FragID]
			theirs := fragColor[e.fragID]
			if mine == theirs && mine != ColorNone {
				bad++
				if bad < 10 {
					t.Errorf("fragments %d and %d adjacent in G' share color %v",
						states[v].FragID, e.fragID, mine)
				}
			}
		}
	}
	if bad > 0 {
		for v := range orients {
			if states[v].FragID == 48 || states[v].FragID == 88 {
				t.Logf("frag %d: orient=%+v nbrInfo=%+v color=%v",
					states[v].FragID, orients[v], nbrs[v], colors[v])
			}
		}
		t.Fatalf("%d improper G' edges", bad)
	}
}
