package core

import (
	"fmt"
	"sort"

	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/sim"
	"sleepmst/internal/trace"
)

// Color is the Fast-Awake-Coloring palette (§2.3). Blue has the
// highest priority; a fragment picks the highest-priority color not
// already taken by a supergraph neighbor, so every first-colored
// fragment of a component is Blue and all Blue fragments merge.
type Color int

// The palette in priority order (Blue > Red > Orange > Black > Green).
const (
	ColorNone Color = iota
	Blue
	Red
	Orange
	Black
	Green
)

// palette lists the colors in priority order.
var palette = [...]Color{Blue, Red, Orange, Black, Green}

func (c Color) String() string {
	switch c {
	case ColorNone:
		return "none"
	case Blue:
		return "blue"
	case Red:
		return "red"
	case Orange:
		return "orange"
	case Black:
		return "black"
	case Green:
		return "green"
	default:
		return fmt.Sprintf("Color(%d)", int(c))
	}
}

// MaxValidIncomingMOEs is the paper's sparsification constant: each
// fragment accepts at most this many incoming MOEs, bounding the
// supergraph degree by MaxValidIncomingMOEs+1 = 4.
const MaxValidIncomingMOEs = 3

// Block layout of one Deterministic-MST phase. The coloring occupies
// 4 blocks per ID stage, N stages.
const (
	dbTAFrag      = 0 // Transmit-Adjacent: refresh (ID, fragID, level)
	dbUpMOE       = 1 // Upcast-Min: fragment MOE to root
	dbBcastMOE    = 2 // Fragment-Broadcast: MOE identity
	dbTAMOE       = 3 // Transmit-Adjacent: mark fragment MOE edges
	dbUpCount     = 4 // Up: subtree counts of incoming-MOE edges
	dbDownToken   = 5 // Down: distribute <= 3 selection tokens
	dbTAValid     = 6 // Transmit-Adjacent: accept/reject notices
	dbUpNbr       = 7 // Up: union of accepted supergraph edges
	dbBcastNbr    = 8 // Fragment-Broadcast: NBR-INFO
	dbColorBase   = 9 // 4N coloring blocks follow
	stageBlocks   = 4 // blocks per coloring stage
	postColor1    = 0 // broadcast of the pass-1 merge decision
	postColorM1   = 1 // Merging-Fragments pass 1 (3 blocks)
	postColorM2   = 4 // Merging-Fragments pass 2 (3 blocks)
	postColorSpan = 7
)

// detPhaseBlocks returns the total blocks per deterministic phase for
// ID space size maxID.
func detPhaseBlocks(maxID int64) int64 {
	return int64(dbColorBase) + stageBlocks*maxID + postColorSpan
}

// nbrEntry describes one supergraph (G') edge from this fragment's
// point of view: the neighboring fragment and the local node/port
// hosting the edge.
type nbrEntry struct {
	fragID   int64
	hostID   int64
	hostPort int
}

// nbrList is the NBR-INFO payload: at most 4 entries (the fragment's
// accepted incoming MOEs plus its accepted outgoing MOE), so the
// message stays within O(log n) bits.
type nbrList []nbrEntry

func (l nbrList) Bits() int {
	b := 3
	for _, e := range l {
		b += ldt.FieldBits(e.fragID) + ldt.FieldBits(e.hostID) + ldt.FieldBits(int64(e.hostPort))
	}
	return b
}

func (nbrList) MsgKind() string { return "nbr-info" }

// intPayload is a Sizer-friendly integer wire value.
type intPayload int64

func (p intPayload) Bits() int { return ldt.FieldBits(int64(p)) }

func (intPayload) MsgKind() string { return "int" }

// validMsg tells the sender of an incoming MOE whether it was selected.
type validMsg struct{ accepted bool }

func (validMsg) Bits() int { return 1 }

func (validMsg) MsgKind() string { return "valid" }

// colorMsg announces a fragment's chosen color.
type colorMsg struct {
	fragID int64
	color  Color
}

func (m colorMsg) Bits() int { return ldt.FieldBits(m.fragID) + 3 }

func (colorMsg) MsgKind() string { return "color" }

// mergeCmd is the pass-1 merge decision broadcast to the fragment.
type mergeCmd struct {
	merging  bool
	hostID   int64
	hostPort int
}

func (m mergeCmd) Bits() int { return 1 + ldt.FieldBits(m.hostID) + ldt.FieldBits(int64(m.hostPort)) }

func (mergeCmd) MsgKind() string { return "merge-cmd" }

// mergeEntries deduplicates and sorts supergraph entries.
func mergeEntries(lists ...[]nbrEntry) nbrList {
	seen := make(map[nbrEntry]bool)
	var out nbrList
	for _, l := range lists {
		for _, e := range l {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].fragID != out[j].fragID {
			return out[i].fragID < out[j].fragID
		}
		if out[i].hostID != out[j].hostID {
			return out[i].hostID < out[j].hostID
		}
		return out[i].hostPort < out[j].hostPort
	})
	return out
}

// supergraph is what step (i) of a deterministic phase leaves at a
// node: the fragment's supergraph adjacency (NBR-INFO) and the node's
// view of the fragment MOE, which the log* coloring orients by.
type supergraph struct {
	nbrInfo     nbrList
	owner       bool // this node owns the fragment MOE
	ownerPort   int  // the MOE's port at its owner, -1 elsewhere
	mutualMOE   bool // the MOE is also the far fragment's MOE
	outAccepted bool // the far fragment accepted the MOE
	inAccepted  bool // this fragment accepted the far side's MOE on the same edge
}

// supergraphStep runs step (i), shared by Deterministic-MST and the
// log* variant: find the fragment MOE, accept at most acceptBudget
// incoming MOEs fragment-wide, and gather the supergraph adjacency at
// every member. It returns false when the fragment spans the graph.
func (c *nodeCtx) supergraphStep(bs func(int64) int64) (supergraph, bool) {
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
	c.steps.StepDone(trace.StepFindMOE)
	if !ph.exists {
		return supergraph{}, false
	}
	owner := c.isMOEOwner(&ph.moe)
	sg := supergraph{owner: owner, ownerPort: -1}

	// Announce the fragment MOE on its edge; learn which incident edges
	// are incoming MOEs from other fragments.
	c.nd.Metrics().Add("moe/probes", int64(c.nd.Degree()))
	out := c.nd.Outbox()
	for p := range out {
		out[p] = taMOEMsg{fragID: c.st.FragID, isMOE: owner && p == ph.moe.ownerPort}
	}
	in := ldt.TransmitAdjacent(c.nd, bs(dbTAMOE), out)
	c.steps.StepDone(trace.StepMarkMOE)
	var incomingPorts []int
	incFrag := make(map[int]int64)
	for p, raw := range in {
		if raw == nil {
			continue
		}
		msg := raw.(taMOEMsg)
		if msg.isMOE && msg.fragID != c.st.FragID {
			incomingPorts = append(incomingPorts, p)
			incFrag[p] = msg.fragID
			if owner && p == ph.moe.ownerPort {
				sg.mutualMOE = true
			}
		}
	}
	sort.Ints(incomingPorts)

	// Select at most MaxValidIncomingMOEs incoming MOEs fragment-wide:
	// count per subtree, then distribute tokens top-down.
	childCount := make(map[int]int64)
	total := ldt.Up(c.nd, c.st, bs(dbUpCount), intPayload(len(incomingPorts)),
		func(own interface{}, fromChildren sim.Inbox) interface{} {
			sum := int64(own.(intPayload))
			for _, port := range c.st.Children {
				if v := fromChildren[port]; v != nil {
					childCount[port] = int64(v.(intPayload))
					sum += childCount[port]
				}
			}
			return intPayload(sum)
		})
	budget := int64(total.(intPayload))
	if budget > c.acceptBudget {
		budget = c.acceptBudget
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

	// Tell each incoming-MOE sender whether its MOE was accepted; the
	// fragment's own MOE owner learns its edge's fate the same way.
	taOut := c.nd.Outbox()
	for _, p := range incomingPorts {
		taOut[p] = validMsg{accepted: validIn[p]}
	}
	var myEntries []nbrEntry
	if len(incomingPorts) > 0 || owner {
		vin := ldt.TransmitAdjacent(c.nd, bs(dbTAValid), taOut)
		if owner {
			if raw := vin[ph.moe.ownerPort]; raw != nil && raw.(validMsg).accepted {
				sg.outAccepted = true
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
	c.steps.StepDone(trace.StepValidate)

	// Collect the fragment's supergraph adjacency (NBR-INFO) at the
	// root and broadcast it to every member.
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
	sg.nbrInfo = ldt.Broadcast(c.nd, c.st, bs(dbBcastNbr), bcastPayload).(nbrList)
	if c.st.IsRoot() {
		c.nd.EmitNbrs(c.steps.phase, len(sg.nbrInfo))
	}
	c.steps.StepDone(trace.StepNbrInfo)
	if owner {
		sg.ownerPort = ph.moe.ownerPort
		sg.inAccepted = validIn[sg.ownerPort]
	}
	return sg, true
}

// detPhase runs one Deterministic-MST phase; done reports that the
// fragment spans the graph.
func (c *nodeCtx) detPhase(phaseStart int64) (done bool) {
	bs := func(b int64) int64 { return phaseStart + b*c.blk }

	// --- Step (i): find the fragment MOE and the supergraph -----------
	sg, ok := c.supergraphStep(bs)
	if !ok {
		return true
	}

	// --- Step (ii): Fast-Awake-Coloring over N ID stages, then merge ---
	myColor, _ := c.fastAwakeColoring(bs, sg.nbrInfo)
	c.steps.StepDone(trace.StepColoring)
	c.mergeByColor(bs, int64(dbColorBase)+stageBlocks*c.nd.MaxID(), sg, myColor)
	return false
}

// mergeByColor is the merge tail shared by Deterministic-MST and the
// log* variant, run once the fragment knows its palette color. It
// occupies postColorSpan blocks from block base.
func (c *nodeCtx) mergeByColor(bs func(int64) int64, base int64, sg supergraph, myColor Color) {
	// Pass 1: Blue fragments with supergraph neighbors merge into an
	// arbitrary (non-Blue) neighbor.
	var cmdPayload interface{}
	if c.st.IsRoot() {
		cmd := mergeCmd{}
		if myColor == Blue && len(sg.nbrInfo) > 0 {
			e := sg.nbrInfo[0] // deterministic arbitrary choice
			cmd = mergeCmd{merging: true, hostID: e.hostID, hostPort: e.hostPort}
		}
		cmdPayload = cmd
	}
	cmd := ldt.Broadcast(c.nd, c.st, bs(base+postColor1), cmdPayload).(mergeCmd)
	c.steps.StepDone(trace.StepDecide)
	dec := ldt.NoMerge
	if cmd.merging {
		dec = ldt.MergeDecision{Merging: true, AttachPort: -1}
		if cmd.hostID == c.nd.ID() {
			dec.AttachPort = cmd.hostPort
		}
	}
	ldt.MergingFragments(c.nd, c.st, bs(base+postColorM1), dec)

	// Pass 2: Blue singleton fragments (no supergraph neighbors) merge
	// along their original MOE. The decision is fragment-wide knowledge,
	// so no extra broadcast is needed.
	dec = ldt.NoMerge
	if myColor == Blue && len(sg.nbrInfo) == 0 {
		dec = ldt.MergeDecision{Merging: true, AttachPort: -1}
		if sg.owner {
			dec.AttachPort = sg.ownerPort
		}
	}
	ldt.MergingFragments(c.nd, c.st, bs(base+postColorM2), dec)
	c.steps.StepDone(trace.StepMerge)
}

// fastAwakeColoring runs the N-stage coloring (§2.3): in stage i, the
// fragment whose ID is i picks the highest-priority color unused by its
// already-colored supergraph neighbors, and the choice is propagated to
// every node of every neighboring fragment. A node is awake only in
// the stages of its own fragment and of its <= 4 supergraph neighbors.
func (c *nodeCtx) fastAwakeColoring(bs func(int64) int64, nbrInfo nbrList) (Color, map[int64]Color) {
	nbrColors := make(map[int64]Color)
	myColor := ColorNone

	// The <= 5 stages this node participates in, ascending by ID.
	type stage struct {
		id     int64
		member bool
	}
	stageSet := map[int64]bool{}
	stages := []stage{{id: c.st.FragID, member: true}}
	stageSet[c.st.FragID] = true
	for _, e := range nbrInfo {
		if !stageSet[e.fragID] {
			stageSet[e.fragID] = true
			stages = append(stages, stage{id: e.fragID})
		}
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].id < stages[j].id })

	stageStart := func(id int64, block int64) int64 {
		return bs(int64(dbColorBase) + stageBlocks*(id-1) + block)
	}

	for _, s := range stages {
		if s.member {
			// Block 0: the root picks the color; Fragment-Broadcast.
			var payload interface{}
			if c.st.IsRoot() {
				used := make(map[Color]bool, len(nbrInfo))
				for _, e := range nbrInfo {
					if col, ok := nbrColors[e.fragID]; ok {
						used[col] = true
					}
				}
				pick := ColorNone
				for _, col := range palette {
					if !used[col] {
						pick = col
						break
					}
				}
				if pick == ColorNone {
					panic("core: palette exhausted — supergraph degree bound violated")
				}
				payload = colorMsg{fragID: c.st.FragID, color: pick}
			}
			cm := ldt.Broadcast(c.nd, c.st, stageStart(s.id, 0), payload).(colorMsg)
			myColor = cm.color
			// Block 1: hosts push the color across supergraph edges.
			hostOut := c.nd.Outbox()
			hosting := false
			for _, e := range nbrInfo {
				if e.hostID == c.nd.ID() {
					hostOut[e.hostPort] = colorMsg{fragID: c.st.FragID, color: myColor}
					hosting = true
				}
			}
			if hosting {
				ldt.TransmitAdjacent(c.nd, stageStart(s.id, 1), hostOut)
			}
			// Blocks 2-3 belong to the neighboring fragments.
			continue
		}
		// Neighbor role: block 1 — hosts of edges to fragment s.id
		// listen for its color.
		var got interface{}
		var hostPorts []int
		for _, e := range nbrInfo {
			if e.fragID == s.id && e.hostID == c.nd.ID() {
				hostPorts = append(hostPorts, e.hostPort)
			}
		}
		if len(hostPorts) > 0 {
			in := ldt.TransmitAdjacent(c.nd, stageStart(s.id, 1), nil)
			for _, p := range hostPorts {
				if raw := in[p]; raw != nil {
					got = raw.(colorMsg)
				}
			}
		}
		// Block 2: upcast the color to this fragment's root
		// (Neighbor-Awareness); block 3: broadcast it down.
		res := c.upcastFirst(stageStart(s.id, 2), got)
		var payload interface{}
		if c.st.IsRoot() {
			if res == nil {
				res = colorMsg{fragID: s.id, color: ColorNone}
			}
			payload = res
		}
		cm := ldt.Broadcast(c.nd, c.st, stageStart(s.id, 3), payload).(colorMsg)
		if cm.color != ColorNone {
			nbrColors[cm.fragID] = cm.color
		}
	}
	return myColor, nbrColors
}

// RunDeterministic executes Algorithm Deterministic-MST on g: O(log n)
// awake complexity and O(nN log n) rounds, where N is the largest node
// ID (which all nodes are assumed to know).
func RunDeterministic(g *graph.Graph, opts Options) (*Outcome, error) {
	return deterministicMST.run(g, opts, nil)
}

// deterministicMST is Deterministic-MST's phase driver.
var deterministicMST = phaseDriver{
	bound:  DeterministicPhaseBound,
	accept: true,
	blocks: detPhaseBlocks,
	phase:  (*nodeCtx).detPhase,
}
