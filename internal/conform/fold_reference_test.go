package conform

import (
	"fmt"
	"sort"

	"sleepmst/internal/trace"
)

// The certification fold as it was before round-settled causality and
// deliver-awake checks: a map insert per awake event and two per send.
// It stays here as the differential reference of CheckTrace.

// refFold is the single-pass aggregation of a trace the checks run over.
type refFold struct {
	n int

	awakeCharged []int64              // KindAwake events per node
	stepSum      []int64              // KindStep Aux per node
	awakeAt      map[refAwakeKey]bool // (round, node) awake set
	sendRounds   map[refPairKey][]int64
	sendCount    map[refSendKey]int64
	delivers     []trace.Event
	deliverIdx   []int // canonical event index of each deliver, for localisation
	crashed      []bool
	anyCrash     bool

	phases    []int32                   // distinct phases, ascending
	phaseFrag map[int32]map[int32]int64 // phase -> node -> entry fragment
	nodeFrag  [][]trace.Event           // per node: phase + merge events, stream order
	nbrs      []trace.Event
	haveSteps bool
}

type refAwakeKey struct {
	round int64
	node  int32
}

type refPairKey struct {
	from, to int32
}

type refSendKey struct {
	round    int64
	from, to int32
}

// refCheckTrace runs the invariant catalog over one trace and returns the
// verdict. meta and events come from trace.ReadJSONL or from a live
// Recorder (Meta()/Events()); info supplies the run context.
func refCheckTrace(meta trace.Meta, events []trace.Event, info RunInfo) *Verdict {
	n := info.N
	if n == 0 {
		n = meta.N
	}
	v := &Verdict{Schema: VerdictSchema, Algo: info.Algorithm, N: n, Seed: info.Seed, Relaxed: info.Relaxed, Pass: true}

	wf := checkWellFormed(meta, events, n)
	v.Append(wf)
	if wf.Status == StatusFail {
		for _, name := range []string{CheckAwakeBudget, CheckAwakeAttribution, CheckMergeConsistency,
			CheckMergeDirection, CheckFragmentDecay, CheckSparsifyDegree, CheckCausality, CheckDeliverAwake} {
			v.Append(Check{Name: name, Status: StatusSkip, Detail: "trace not well-formed"})
		}
		return v
	}

	f := refFoldEvents(n, events)
	h := refWalkFragments(f)
	v.Append(refCheckAwakeBudget(f, info, n))
	v.Append(refCheckAwakeAttribution(f, meta, info))
	consistency, direction := refCheckMerges(h, meta)
	v.Append(consistency)
	v.Append(direction)
	v.Append(refCheckFragmentDecay(f, h, meta))
	v.Append(refCheckSparsifyDegree(f))
	v.Append(refCheckCausality(f, meta, info))
	v.Append(refCheckDeliverAwake(f, meta))
	return v
}

// refFoldEvents aggregates the stream into the per-check indexes.
func refFoldEvents(n int, events []trace.Event) *refFold {
	f := &refFold{
		n:            n,
		awakeCharged: make([]int64, n),
		stepSum:      make([]int64, n),
		awakeAt:      make(map[refAwakeKey]bool),
		sendRounds:   make(map[refPairKey][]int64),
		sendCount:    make(map[refSendKey]int64),
		crashed:      make([]bool, n),
		phaseFrag:    map[int32]map[int32]int64{},
		nodeFrag:     make([][]trace.Event, n),
	}
	for i, ev := range events {
		switch ev.Kind {
		case trace.KindAwake:
			f.awakeCharged[ev.Node]++
			f.awakeAt[refAwakeKey{ev.Round, ev.Node}] = true
		case trace.KindStep:
			f.stepSum[ev.Node] += ev.Aux
			f.haveSteps = true
		case trace.KindSend:
			f.sendRounds[refPairKey{ev.Node, ev.Peer}] = append(f.sendRounds[refPairKey{ev.Node, ev.Peer}], ev.Round)
			f.sendCount[refSendKey{ev.Round, ev.Node, ev.Peer}]++
		case trace.KindDeliver:
			f.delivers = append(f.delivers, ev)
			f.deliverIdx = append(f.deliverIdx, i)
		case trace.KindCrash:
			f.crashed[ev.Node] = true
			f.anyCrash = true
		case trace.KindPhase:
			m, ok := f.phaseFrag[ev.Phase]
			if !ok {
				m = map[int32]int64{}
				f.phaseFrag[ev.Phase] = m
				f.phases = append(f.phases, ev.Phase)
			}
			m[ev.Node] = ev.Frag
			f.nodeFrag[ev.Node] = append(f.nodeFrag[ev.Node], ev)
		case trace.KindMerge:
			f.nodeFrag[ev.Node] = append(f.nodeFrag[ev.Node], ev)
		case trace.KindNbrs:
			f.nbrs = append(f.nbrs, ev)
		}
	}
	sort.Slice(f.phases, func(i, j int) bool { return f.phases[i] < f.phases[j] })
	for _, rounds := range f.sendRounds {
		sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	}
	return f
}

// refCheckAwakeBudget compares each node's awake rounds against the
// algorithm's Table 1 envelope.
func refCheckAwakeBudget(f *refFold, info RunInfo, n int) Check {
	c := Check{Name: CheckAwakeBudget, Status: StatusPass}
	var budget int64
	var ok bool
	if info.Budget != nil {
		budget, ok = info.Budget(n)
	} else {
		budget, ok = AwakeBudget(info.Algorithm, n)
	}
	if !ok {
		return skip(c, fmt.Sprintf("no awake envelope for algorithm %q", info.Algorithm))
	}
	slack := info.BudgetSlack
	if slack <= 0 {
		slack = 1
	}
	limit := int64(float64(budget) * slack)
	for node := 0; node < f.n; node++ {
		awake := f.awakeCharged[node]
		if f.stepSum[node] > awake {
			awake = f.stepSum[node] // ring overflow can undercount charges
		}
		if awake > limit {
			c.Violations++
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("node %d awake %d > budget %d (=%d×%.2g slack)", node, awake, limit, budget, slack)
			}
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	} else {
		c.Detail = fmt.Sprintf("max awake within budget %d", limit)
	}
	return c
}

// refCheckAwakeAttribution verifies the attributed==charged identity: per
// node, the step-attributed awake rounds equal the scheduler-charged
// awake events. Crashed nodes die mid-step, so they are excluded.
func refCheckAwakeAttribution(f *refFold, meta trace.Meta, info RunInfo) Check {
	c := Check{Name: CheckAwakeAttribution, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped by ring overflow", meta.Dropped))
	}
	if !f.haveSteps {
		return skip(c, "trace has no step events")
	}
	for node := 0; node < f.n; node++ {
		if f.crashed[node] {
			continue
		}
		if f.stepSum[node] != f.awakeCharged[node] {
			c.Violations++
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("node %d: %d attributed != %d charged", node, f.stepSum[node], f.awakeCharged[node])
			}
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	}
	return c
}

// refFragHistory is the result of replaying every node's fragment-label
// events in logical emission order.
type refFragHistory struct {
	mergesByPhase map[int32][]trace.Event
	finalFrag     map[int32]int64
	violations    int64
	firstDetail   string
}

// refWalkFragments replays phase-entry and merge events per node. The
// canonical trace order sorts a phase's closing merge AFTER the next
// phase's entry event (both are stamped with the same wake round, and
// KindPhase ranks below KindMerge), so the walk restores the logical
// order — merges before phase entries at equal rounds — then checks
// label continuity and attributes each merge to the phase the node was
// still in.
func refWalkFragments(f *refFold) *refFragHistory {
	h := &refFragHistory{mergesByPhase: map[int32][]trace.Event{}, finalFrag: make(map[int32]int64, f.n)}
	note := func(format string, args ...interface{}) {
		h.violations++
		if h.firstDetail == "" {
			h.firstDetail = fmt.Sprintf(format, args...)
		}
	}
	for node := range f.nodeFrag {
		evs := append([]trace.Event(nil), f.nodeFrag[node]...)
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Round != evs[j].Round {
				return evs[i].Round < evs[j].Round
			}
			return evs[i].Kind == trace.KindMerge && evs[j].Kind == trace.KindPhase
		})
		curPhase := int32(0)
		curFrag, known := int64(0), false
		mergedInPhase := false
		for _, ev := range evs {
			if ev.Kind == trace.KindPhase {
				if known && curFrag != ev.Frag {
					note("node %d enters phase %d as fragment %d, was %d", node, ev.Phase, ev.Frag, curFrag)
				}
				curPhase, curFrag, known = ev.Phase, ev.Frag, true
				mergedInPhase = false
				continue
			}
			if mergedInPhase {
				note("node %d merges twice in phase %d", node, curPhase)
			}
			mergedInPhase = true
			if ev.Prev == ev.Frag {
				note("node %d: self-merge of fragment %d in phase %d", node, ev.Frag, curPhase)
			}
			if known && curFrag != ev.Prev {
				note("node %d merges from fragment %d but was in %d (phase %d)", node, ev.Prev, curFrag, curPhase)
			}
			curFrag, known = ev.Frag, true
			h.mergesByPhase[curPhase] = append(h.mergesByPhase[curPhase], ev)
		}
		if known {
			h.finalFrag[int32(node)] = curFrag
		}
	}
	return h
}

// refCheckMerges verifies per-phase merge structure: label continuity and
// at most one merge per node (consistency), and the tails-into-heads
// direction (no fragment is both source and target of one phase's
// waves) that keeps the merge supergraph single-hop.
func refCheckMerges(h *refFragHistory, meta trace.Meta) (consistency, direction Check) {
	consistency = Check{Name: CheckMergeConsistency, Status: StatusPass}
	direction = Check{Name: CheckMergeDirection, Status: StatusPass}
	if meta.Dropped > 0 {
		reason := fmt.Sprintf("%d events dropped by ring overflow", meta.Dropped)
		return skip(consistency, reason), skip(direction, reason)
	}
	consistency.Violations = h.violations
	consistency.Detail = h.firstDetail
	if consistency.Violations > 0 {
		consistency.Status = StatusFail
	}
	phases := make([]int32, 0, len(h.mergesByPhase))
	for ph := range h.mergesByPhase {
		phases = append(phases, ph)
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i] < phases[j] })
	for _, ph := range phases {
		srcs, dsts := map[int64]bool{}, map[int64]bool{}
		var chained []int64
		for _, ev := range h.mergesByPhase[ph] {
			srcs[ev.Prev] = true
			dsts[ev.Frag] = true
		}
		for frag := range dsts {
			if srcs[frag] {
				chained = append(chained, frag)
			}
		}
		sort.Slice(chained, func(i, j int) bool { return chained[i] < chained[j] })
		for _, frag := range chained {
			direction.Violations++
			if direction.Detail == "" {
				direction.Detail = fmt.Sprintf("fragment %d is both merge source and target in phase %d", frag, ph)
			}
		}
	}
	if direction.Violations > 0 {
		direction.Status = StatusFail
	}
	return consistency, direction
}

// refCheckFragmentDecay verifies the Lemma 1 / Lemma 5 shape: the number
// of distinct fragments never grows across phases, and the run ends
// with every (non-crashed) node in one fragment.
func refCheckFragmentDecay(f *refFold, h *refFragHistory, meta trace.Meta) Check {
	c := Check{Name: CheckFragmentDecay, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped by ring overflow", meta.Dropped))
	}
	if len(f.phases) == 0 {
		return skip(c, "trace has no phase events")
	}
	prevCount := -1
	for _, ph := range f.phases {
		distinct := map[int64]bool{}
		for _, frag := range f.phaseFrag[ph] {
			distinct[frag] = true
		}
		if prevCount >= 0 && len(distinct) > prevCount {
			c.Violations++
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("phase %d has %d fragments, up from %d", ph, len(distinct), prevCount)
			}
		}
		prevCount = len(distinct)
	}
	final := map[int64]bool{}
	for node, frag := range h.finalFrag {
		if f.crashed[node] {
			continue
		}
		final[frag] = true
	}
	if len(final) != 1 {
		c.Violations++
		if c.Detail == "" {
			c.Detail = fmt.Sprintf("run ends with %d fragments, want 1", len(final))
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	}
	return c
}

// refCheckSparsifyDegree verifies every recorded supergraph degree stays
// within SupergraphDegreeBound.
func refCheckSparsifyDegree(f *refFold) Check {
	c := Check{Name: CheckSparsifyDegree, Status: StatusPass}
	if len(f.nbrs) == 0 {
		return skip(c, "trace has no nbrs events")
	}
	for _, ev := range f.nbrs {
		if ev.Aux > SupergraphDegreeBound {
			c.Violations++
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("node %d reports supergraph degree %d > %d (phase %d)", ev.Node, ev.Aux, SupergraphDegreeBound, ev.Phase)
			}
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	} else {
		c.Detail = fmt.Sprintf("%d degree reports ≤ %d", len(f.nbrs), SupergraphDegreeBound)
	}
	return c
}

// refCheckCausality verifies every delivery has a matching send: in the
// same round (clean model), or in any earlier-or-equal round when
// Relaxed (interceptor delays and duplicate copies arrive late).
func refCheckCausality(f *refFold, meta trace.Meta, info RunInfo) Check {
	c := Check{Name: CheckCausality, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped by ring overflow", meta.Dropped))
	}
	if info.Relaxed {
		for di, ev := range f.delivers {
			rounds := f.sendRounds[refPairKey{ev.Peer, ev.Node}]
			i := sort.Search(len(rounds), func(i int) bool { return rounds[i] > ev.Round })
			if i == 0 {
				c.Violations++
				if c.Detail == "" {
					// The event index localises the violation in the
					// canonical stream (tracediff's coordinate system).
					c.Detail = fmt.Sprintf("event %d: deliver %d->%d at round %d precedes every send",
						f.deliverIdx[di], ev.Peer, ev.Node, ev.Round)
				}
			}
		}
	} else {
		deliverCount := map[refSendKey]int64{}
		for _, ev := range f.delivers {
			deliverCount[refSendKey{ev.Round, ev.Peer, ev.Node}]++
		}
		// Walk the violating keys in a deterministic order: map
		// iteration order would make the reported first violation — and
		// therefore the verdict bytes — vary between identical runs.
		var bad []refSendKey
		for key, got := range deliverCount {
			if got > f.sendCount[key] {
				bad = append(bad, key)
			}
		}
		sort.Slice(bad, func(i, j int) bool {
			a, b := bad[i], bad[j]
			if a.round != b.round {
				return a.round < b.round
			}
			if a.from != b.from {
				return a.from < b.from
			}
			return a.to < b.to
		})
		for _, key := range bad {
			got := deliverCount[key]
			c.Violations += got - f.sendCount[key]
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("round %d: %d deliveries %d->%d but %d sends", key.round, got, key.from, key.to, f.sendCount[key])
			}
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	}
	return c
}

// refCheckDeliverAwake verifies no delivery reached a node that was not
// awake (and charged) in the delivery round.
func refCheckDeliverAwake(f *refFold, meta trace.Meta) Check {
	c := Check{Name: CheckDeliverAwake, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped by ring overflow", meta.Dropped))
	}
	for _, ev := range f.delivers {
		if !f.awakeAt[refAwakeKey{ev.Round, ev.Node}] {
			c.Violations++
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("node %d received from %d in round %d while asleep", ev.Node, ev.Peer, ev.Round)
			}
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	}
	return c
}
