package core

import (
	"sort"

	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/sim"
	"sleepmst/internal/trace"
)

// This file implements the Corollary 1 variant (§2.3 Remark): the
// O(nN)-round Fast-Awake-Coloring is replaced by a Cole–Vishkin style
// deterministic coloring of the fragment supergraph, which needs only
// O(log* N) iterations. The result is an MST algorithm with
// O(log n log* n) awake complexity and O(n log n log* n) rounds — no
// dependence on the ID space size N in the round complexity.
//
// The supergraph G' (fragments + accepted MOE edges) is oriented into
// a rooted forest: every G' edge is the accepted outgoing MOE of at
// least one of its two fragments, and following outgoing MOEs can only
// produce 2-cycles (mutual MOEs), which are broken toward the smaller
// fragment ID. Cole–Vishkin then maintains a coloring that is proper
// across parent edges — and hence across every G' edge — shrinking the
// palette from [1, N] to at most 8 colors in O(log* N) iterations.
// Eight final mini-stages (one per CV color class, which is an
// independent set) assign the paper's 5-color priority palette exactly
// as Fast-Awake-Coloring does, so the merging analysis is unchanged.

// cvMaxColors is the CV fixed-point palette bound: values in [0, 7].
const cvMaxColors = 8

// CVIterations returns the number of Cole–Vishkin iterations needed to
// shrink colors in [0, maxColor] to values < 8. All nodes compute it
// locally from N, so the block layout stays globally known.
func CVIterations(maxColor int64) int {
	iters := 0
	for maxColor >= cvMaxColors {
		bits := int64(0)
		for v := maxColor; v > 0; v >>= 1 {
			bits++
		}
		// New colors are 2k+b with k < bits, so at most 2(bits-1)+1.
		maxColor = 2*(bits-1) + 1
		iters++
	}
	return iters
}

// cvStep is one Cole–Vishkin color update: given own and parent colors
// (which must differ), return 2k+b where k is the lowest differing bit
// index and b is own bit k.
func cvStep(own, parent int64) int64 {
	diff := own ^ parent
	if diff == 0 {
		panic("core: CV invariant violated — child and parent share a color")
	}
	k := int64(0)
	for diff&1 == 0 {
		diff >>= 1
		k++
	}
	return 2*k + (own>>k)&1
}

// cvRootStep updates a CV root against a fake parent color.
func cvRootStep(own int64) int64 {
	fake := int64(0)
	if own == 0 {
		fake = 1
	}
	return cvStep(own, fake)
}

// cvColorMsg carries a fragment's current CV color.
type cvColorMsg struct {
	fragID int64
	color  int64
}

func (m cvColorMsg) Bits() int { return ldt.FieldBits(m.fragID) + ldt.FieldBits(m.color) }

func (cvColorMsg) MsgKind() string { return "cv-color" }

// cvColorList is the Up/Broadcast payload: CV colors of <= 4 neighbors.
type cvColorList []cvColorMsg

func (l cvColorList) Bits() int {
	b := 3
	for _, m := range l {
		b += m.Bits()
	}
	return b
}

func (cvColorList) MsgKind() string { return "cv-colors" }

// parentInfo is the orientation broadcast payload.
type parentInfo struct {
	hasParent bool
	fragID    int64 // the CV-parent fragment
}

func (m parentInfo) Bits() int { return 1 + ldt.FieldBits(m.fragID) }

func (parentInfo) MsgKind() string { return "cv-parent" }

// logStarBlocks returns the block count of one LogStar-MST phase.
func logStarBlocks(maxID int64) int64 {
	k := int64(CVIterations(maxID))
	// 9 step-(i) blocks, 2 orientation blocks, 3 per CV iteration,
	// 4 per mini-stage (8 stages), then the 1+3+3-block merge tail.
	return 9 + 2 + 3*k + 4*cvMaxColors + postColorSpan
}

// logStarColoring produces the 5-color priority palette for this
// node's fragment using CV + 8 mini-stages. mutualMOE reports whether
// the fragment's outgoing MOE edge is also the target's MOE (known at
// the owner from the dbTAMOE exchange), outAccepted whether the
// outgoing direction was accepted by the target, and inAccepted
// whether this fragment itself accepted the reverse direction of that
// same edge; all three are meaningful only at the owner.
func (c *nodeCtx) logStarColoring(bs func(int64) int64, nbrInfo nbrList,
	owner bool, ownerPort int, outAccepted, mutualMOE, inAccepted bool) Color {
	if len(nbrInfo) == 0 {
		// Isolated in G': Blue by the priority rule (no used colors).
		return Blue
	}
	maxID := c.nd.MaxID()
	iters := CVIterations(maxID)

	// Orientation: the fragment has a CV parent iff its outgoing MOE
	// was accepted. When the edge is a mutual MOE accepted in BOTH
	// directions, exactly one side may point (else a 2-cycle): the
	// larger fragment ID takes the smaller as parent. A mutual edge
	// accepted in only one direction is an ordinary parent edge for
	// the accepted direction — treating it as a tie to break would
	// leave the edge uncovered by the forest and break CV properness.
	var mine interface{}
	if owner {
		pi := parentInfo{}
		if outAccepted {
			target := c.nbrFragID[ownerPort]
			bothAccepted := mutualMOE && inAccepted
			if !bothAccepted || target < c.st.FragID {
				pi = parentInfo{hasParent: true, fragID: target}
			}
		}
		mine = pi
	}
	rootGot := c.upcastFirst(bs(9), mine)
	var payload interface{}
	if c.st.IsRoot() {
		if rootGot == nil {
			rootGot = parentInfo{}
		}
		payload = rootGot
	}
	parent := ldt.Broadcast(c.nd, c.st, bs(10), payload).(parentInfo)

	// Hosts of G' edges, for the per-iteration color exchange.
	hostPorts := make([]int, 0, 4)
	for _, e := range nbrInfo {
		if e.hostID == c.nd.ID() {
			hostPorts = append(hostPorts, e.hostPort)
		}
	}

	// Cole–Vishkin iterations. Every member tracks its fragment's CV
	// color and all neighbors' colors in lockstep.
	cvColor := c.st.FragID
	base := int64(11)
	for it := 0; it < iters; it++ {
		ib := base + 3*int64(it)
		// TA: hosts exchange current colors with all G' neighbors.
		var got []cvColorMsg
		if len(hostPorts) > 0 {
			out := c.nd.Outbox()
			for _, p := range hostPorts {
				out[p] = cvColorMsg{fragID: c.st.FragID, color: cvColor}
			}
			in := ldt.TransmitAdjacent(c.nd, bs(ib), out)
			for _, p := range hostPorts {
				if raw := in[p]; raw != nil {
					got = append(got, raw.(cvColorMsg))
				}
			}
		}
		// Up + Broadcast: all members learn the neighbors' colors.
		agg := ldt.Up(c.nd, c.st, bs(ib+1), cvColorList(got),
			func(own interface{}, fromChildren sim.Inbox) interface{} {
				merged := append(cvColorList(nil), own.(cvColorList)...)
				for _, child := range c.st.Children {
					if v := fromChildren[child]; v != nil {
						merged = append(merged, v.(cvColorList)...)
					}
				}
				return dedupeCV(merged)
			})
		var bc interface{}
		if c.st.IsRoot() {
			bc = agg.(cvColorList)
		}
		nbrCV := ldt.Broadcast(c.nd, c.st, bs(ib+2), bc).(cvColorList)

		// Local lockstep update.
		if parent.hasParent {
			pc, ok := findCV(nbrCV, parent.fragID)
			if !ok {
				panic("core: CV parent color missing")
			}
			cvColor = cvStep(cvColor, pc)
		} else {
			cvColor = cvRootStep(cvColor)
		}
	}

	// Mini-stages: the stage structure of Fast-Awake-Coloring, keyed by
	// CV color class in [0, 8) instead of by fragment ID in [1, N].
	return c.paletteStages(bs, base+3*int64(iters), nbrInfo, hostPorts, cvColor)
}

// dedupeCV removes duplicate fragment entries from a CV color list.
func dedupeCV(l cvColorList) cvColorList {
	sort.Slice(l, func(i, j int) bool { return l[i].fragID < l[j].fragID })
	out := l[:0]
	for i, m := range l {
		if i == 0 || m.fragID != out[len(out)-1].fragID {
			out = append(out, m)
		}
	}
	return out
}

func findCV(l cvColorList, fragID int64) (int64, bool) {
	for _, m := range l {
		if m.fragID == fragID {
			return m.color, true
		}
	}
	return 0, false
}

// paletteStages assigns the 5-color palette over 8 CV-class
// mini-stages. Stage c (4 blocks) lets every fragment of CV class c
// pick the highest-priority color unused by its neighbors, then
// propagates the choice into neighboring fragments, exactly like one
// Fast-Awake-Coloring stage.
func (c *nodeCtx) paletteStages(bs func(int64) int64, stageBase int64, nbrInfo nbrList,
	hostPorts []int, myCV int64) Color {
	// Rather than tracking neighbors' CV classes, every host listens in
	// every stage's TA block — 8 stages, so still O(1) awake rounds —
	// and colors are learned as they appear.
	nbrColors := make(map[int64]Color)
	myColor := ColorNone
	for class := int64(0); class < cvMaxColors; class++ {
		sb := func(b int64) int64 { return bs(stageBase + 4*class + b) }
		if myCV == class {
			// Member: pick color, broadcast, push to neighbors.
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
					panic("core: palette exhausted in log* coloring")
				}
				payload = colorMsg{fragID: c.st.FragID, color: pick}
			}
			cm := ldt.Broadcast(c.nd, c.st, sb(0), payload).(colorMsg)
			myColor = cm.color
			if len(hostPorts) > 0 {
				out := c.nd.Outbox()
				for _, p := range hostPorts {
					out[p] = colorMsg{fragID: c.st.FragID, color: myColor}
				}
				ldt.TransmitAdjacent(c.nd, sb(1), out)
			}
			continue
		}
		// Neighbor role: hosts listen; colors are upcast + broadcast.
		var got interface{}
		if len(hostPorts) > 0 {
			in := ldt.TransmitAdjacent(c.nd, sb(1), nil)
			var lm []colorMsg
			for _, p := range hostPorts {
				if raw := in[p]; raw != nil {
					lm = append(lm, raw.(colorMsg))
				}
			}
			if len(lm) > 0 {
				got = colorMsgList(lm)
			}
		}
		agg := ldt.Up(c.nd, c.st, sb(2), got,
			func(own interface{}, fromChildren sim.Inbox) interface{} {
				var merged colorMsgList
				if own != nil {
					merged = append(merged, own.(colorMsgList)...)
				}
				for _, child := range c.st.Children {
					if v := fromChildren[child]; v != nil {
						merged = append(merged, v.(colorMsgList)...)
					}
				}
				if len(merged) == 0 {
					return nil
				}
				return merged
			})
		var bc interface{}
		if c.st.IsRoot() {
			if agg == nil {
				agg = colorMsgList{}
			}
			bc = agg
		}
		res := ldt.Broadcast(c.nd, c.st, sb(3), bc).(colorMsgList)
		for _, m := range res {
			nbrColors[m.fragID] = m.color
		}
	}
	return myColor
}

// colorMsgList is a small list of palette color announcements.
type colorMsgList []colorMsg

func (l colorMsgList) Bits() int {
	b := 3
	for _, m := range l {
		b += m.Bits()
	}
	return b
}

func (colorMsgList) MsgKind() string { return "color-list" }

// logStarPhase is detPhase with the coloring swapped out.
func (c *nodeCtx) logStarPhase(phaseStart int64) (done bool) {
	bs := func(b int64) int64 { return phaseStart + b*c.blk }

	// --- Step (i): identical to Deterministic-MST ----------------------
	sg, ok := c.supergraphStep(bs)
	if !ok {
		return true
	}

	// --- Step (ii): log* coloring + merging -----------------------------
	myColor := c.logStarColoring(bs, sg.nbrInfo, sg.owner, sg.ownerPort, sg.outAccepted, sg.mutualMOE, sg.inAccepted)
	c.steps.StepDone(trace.StepColoring)
	c.mergeByColor(bs, logStarBlocks(c.nd.MaxID())-postColorSpan, sg, myColor)
	return false
}

// RunLogStar executes the Corollary 1 algorithm: O(log n log* n) awake
// complexity and O(n log n log* n) rounds, independent of the ID
// space size.
func RunLogStar(g *graph.Graph, opts Options) (*Outcome, error) {
	return logStarMST.run(g, opts, nil)
}

// logStarMST is the Corollary 1 variant's phase driver.
var logStarMST = phaseDriver{
	bound:  DeterministicPhaseBound,
	accept: true,
	blocks: logStarBlocks,
	phase:  (*nodeCtx).logStarPhase,
}
