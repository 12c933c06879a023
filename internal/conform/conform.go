// Package conform is a trace-replay invariant checker for the
// sleeping-model simulator: it consumes a structured event trace (a
// trace.Recorder's events or a stream parsed by trace.ReadJSONL) and
// verifies the paper's guarantees held on that run — per-node awake
// budgets within the Table 1 envelopes, exact attribution of awake
// rounds to phase steps, single-hop tails-into-heads merge waves,
// degree-≤4 supergraph sparsification, and message causality. The
// result is a Verdict: one pass/fail/skip entry per invariant, with a
// machine-readable JSON form consumed by `mstbench -exp conform` and a
// Suite helper for asserting the catalog inside tests.
//
// The checker is trace-only by design: it imports nothing above
// internal/trace, so algorithm packages and their tests can use it
// without import cycles. MST-weight agreement needs the graph and is
// therefore appended by callers via WeightCheck.
package conform

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"sleepmst/internal/trace"
)

// Check statuses.
const (
	// StatusPass marks an invariant that held everywhere it applied.
	StatusPass = "pass"
	// StatusFail marks an invariant with at least one violation.
	StatusFail = "fail"
	// StatusSkip marks an invariant that could not be evaluated on
	// this trace (reason in Detail); skips never fail a verdict.
	StatusSkip = "skip"
)

// Invariant names, in catalog (and verdict) order.
const (
	// CheckWellFormed: event coordinates are in range and rounds are
	// non-decreasing; failing it skips every downstream check.
	CheckWellFormed = "trace-wellformed"
	// CheckAwakeBudget: every node's awake rounds stay within the
	// algorithm's Table 1 envelope (see AwakeBudget).
	CheckAwakeBudget = "awake-budget"
	// CheckAwakeAttribution: per node, awake rounds attributed to phase
	// steps equal the scheduler-charged awake rounds.
	CheckAwakeAttribution = "awake-attribution"
	// CheckMergeConsistency: fragment labels evolve consistently — one
	// merge per node per phase, matching phase-entry fragments.
	CheckMergeConsistency = "merge-consistency"
	// CheckMergeDirection: merge waves run tails-into-heads only — no
	// fragment is both a merge source and a merge target in one phase.
	CheckMergeDirection = "merge-tails-into-heads"
	// CheckFragmentDecay: distinct-fragment counts never increase
	// across phases and the run ends in a single fragment.
	CheckFragmentDecay = "fragment-decay"
	// CheckSparsifyDegree: every recorded supergraph degree is at most
	// SupergraphDegreeBound.
	CheckSparsifyDegree = "sparsify-degree"
	// CheckCausality: no message is delivered before (strict: in a
	// different round than) its send.
	CheckCausality = "causality"
	// CheckDeliverAwake: no message is delivered to a sleeping node.
	CheckDeliverAwake = "deliver-awake"
	// CheckMSTWeight: the computed tree weight matches the Kruskal
	// reference (appended by callers via WeightCheck).
	CheckMSTWeight = "mst-weight"
	// CheckMISValid: the computed node set is independent and maximal
	// (appended by callers via MISCheck).
	CheckMISValid = "mis-valid"
)

// VerdictSchema is the version stamp of the verdict JSON shape.
const VerdictSchema = 1

// RunInfo carries the run context the trace alone cannot provide.
type RunInfo struct {
	// Algorithm is the CLI spelling of the algorithm that produced the
	// trace ("" = unknown; budget and attribution checks are skipped).
	Algorithm string
	// N overrides the node count (0 = take it from the trace meta).
	N int
	// Seed is recorded in the verdict for provenance only.
	Seed int64
	// BudgetSlack multiplies the awake budget (0 = 1.0). Chaos runs
	// use >1: injected faults may legitimately cost extra awake
	// rounds.
	BudgetSlack float64
	// Budget, when non-nil, supplies the per-node awake envelope for
	// node count n, overriding the built-in MST catalog. Problems
	// outside the MST suite (e.g. MIS) provide their envelope here;
	// returning ok=false skips the budget check.
	Budget func(n int) (int64, bool)
	// Relaxed loosens the checks for fault-injected traces: delivery
	// may lag its send (delays, duplicate copies) and crashed nodes
	// are excluded from attribution and decay accounting.
	Relaxed bool
}

// Check is one invariant's outcome.
type Check struct {
	// Name is the invariant's catalog name.
	Name string `json:"name"`
	// Status is pass, fail, or skip.
	Status string `json:"status"`
	// Violations counts individual violations behind a fail.
	Violations int64 `json:"violations"`
	// Detail describes the first violation or the skip reason.
	Detail string `json:"detail,omitempty"`
}

// Verdict is the result of checking one trace: the full invariant
// catalog plus run provenance.
type Verdict struct {
	// Schema is VerdictSchema.
	Schema int `json:"schema"`
	// Algo is the algorithm name from RunInfo ("" if unknown).
	Algo string `json:"algo"`
	// N is the node count of the checked run.
	N int `json:"n"`
	// Seed is the run seed from RunInfo.
	Seed int64 `json:"seed"`
	// Relaxed records whether chaos-mode relaxations were applied.
	Relaxed bool `json:"relaxed"`
	// Pass is true when no check failed (skips do not fail).
	Pass bool `json:"pass"`
	// Checks is the invariant catalog in canonical order.
	Checks []Check `json:"checks"`
}

// Append adds a check to the verdict and updates Pass.
func (v *Verdict) Append(c Check) {
	v.Checks = append(v.Checks, c)
	if c.Status == StatusFail {
		v.Pass = false
	}
}

// Failures returns the failed checks, in catalog order.
func (v *Verdict) Failures() []Check {
	var out []Check
	for _, c := range v.Checks {
		if c.Status == StatusFail {
			out = append(out, c)
		}
	}
	return out
}

// Lookup returns the named check, or nil if the verdict has none.
func (v *Verdict) Lookup(name string) *Check {
	for i := range v.Checks {
		if v.Checks[i].Name == name {
			return &v.Checks[i]
		}
	}
	return nil
}

// WriteJSON writes the verdict as indented JSON.
func (v *Verdict) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// String renders a one-line-per-check human summary.
func (v *Verdict) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !v.Pass {
		verdict = "FAIL"
	}
	algo := v.Algo
	if algo == "" {
		algo = "?"
	}
	fmt.Fprintf(&b, "conformance %s  algo=%s n=%d seed=%d relaxed=%v\n", verdict, algo, v.N, v.Seed, v.Relaxed)
	for _, c := range v.Checks {
		fmt.Fprintf(&b, "  %-22s %-4s", c.Name, c.Status)
		if c.Violations > 0 {
			fmt.Fprintf(&b, " violations=%d", c.Violations)
		}
		if c.Detail != "" {
			fmt.Fprintf(&b, "  (%s)", c.Detail)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WeightCheck builds the MST-weight agreement check from the computed
// tree weight and the Kruskal reference weight.
func WeightCheck(got, want int64) Check {
	if got != want {
		return Check{Name: CheckMSTWeight, Status: StatusFail, Violations: 1,
			Detail: fmt.Sprintf("tree weight %d != reference %d", got, want)}
	}
	return Check{Name: CheckMSTWeight, Status: StatusPass}
}

// MISCheck builds the MIS-validity check from violation counts (see
// graph.MISViolations): edges inside the set break independence,
// uncovered nodes break maximality.
func MISCheck(notIndependent, notMaximal int64) Check {
	if notIndependent > 0 || notMaximal > 0 {
		return Check{Name: CheckMISValid, Status: StatusFail, Violations: notIndependent + notMaximal,
			Detail: fmt.Sprintf("%d in-set edges, %d uncovered nodes", notIndependent, notMaximal)}
	}
	return Check{Name: CheckMISValid, Status: StatusPass}
}

// fold is the single-pass aggregation of a trace the checks run over.
// It keeps per-node arrays and event-order slices, never a map on the
// clean path: deliver-awake and strict causality are settled round by
// round (a well-formed trace never goes back a round), against a node
// stamp array and the round's sorted (from, to) pairs.
type fold struct {
	n       int
	relaxed bool

	awakeCharged []int64 // KindAwake events per node
	stepSum      []int64 // KindStep Aux per node
	crashed      []bool
	haveSteps    bool

	asleep    violations // deliveries to nodes not awake that round
	causality violations // deliveries without a matching send

	fragEvents []trace.Event // KindPhase and KindMerge events, event order
	nbrs       []trace.Event

	// The round being folded: block numbers the rounds seen so far, and
	// awakeIn[v] == block iff node v was awake in it.
	block    int64
	round    int64
	awakeIn  []int64
	sends    []uint64 // the round's sends as packed (from, to)
	received []receipt
	pairs    []uint64 // settle scratch
	// sent holds every (from, to) pair sent so far; Relaxed only.
	sent map[uint64]struct{}
}

// receipt is one delivery of the round being folded.
type receipt struct {
	to, from int32
	idx      int // canonical event index, for localisation
}

// violations counts one check's violations and keeps the first one's
// description.
type violations struct {
	count  int64
	detail string
}

func (v *violations) add(count int64, format string, args ...interface{}) {
	v.count += count
	if v.detail == "" {
		v.detail = fmt.Sprintf(format, args...)
	}
}

// check returns c with the violations folded in.
func (v *violations) check(c Check) Check {
	c.Violations, c.Detail = v.count, v.detail
	if v.count > 0 {
		c.Status = StatusFail
	}
	return c
}

func pairKey(from, to int32) uint64 { return uint64(from)<<32 | uint64(uint32(to)) }

// CheckTrace runs the invariant catalog over one trace and returns the
// verdict. meta and events come from trace.ReadJSONL or from a live
// Recorder (Meta()/Events()); info supplies the run context.
func CheckTrace(meta trace.Meta, events []trace.Event, info RunInfo) *Verdict {
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

	f := foldEvents(n, events, info.Relaxed)
	h := walkFragments(f)
	v.Append(checkAwakeBudget(f, info, n))
	v.Append(checkAwakeAttribution(f, meta, info))
	consistency, direction := checkMerges(h, meta)
	v.Append(consistency)
	v.Append(direction)
	v.Append(checkFragmentDecay(f, h, meta))
	v.Append(checkSparsifyDegree(f))
	v.Append(checkCausality(f, meta))
	v.Append(checkDeliverAwake(f, meta))
	return v
}

// checkWellFormed validates event coordinates and canonical round
// ordering; every other check assumes it passed.
func checkWellFormed(meta trace.Meta, events []trace.Event, n int) Check {
	c := Check{Name: CheckWellFormed, Status: StatusPass}
	if n <= 0 {
		return fail(c, fmt.Sprintf("non-positive node count %d", n))
	}
	prevRound := int64(-1)
	for i, ev := range events {
		bad := ""
		switch {
		case ev.Kind > trace.KindNbrs:
			bad = fmt.Sprintf("unknown kind %d", ev.Kind)
		case ev.Round < 0:
			bad = fmt.Sprintf("negative round %d", ev.Round)
		case ev.Node < 0 || int(ev.Node) >= n:
			bad = fmt.Sprintf("node %d outside [0,%d)", ev.Node, n)
		case (ev.Kind == trace.KindPhase || ev.Kind == trace.KindStep || ev.Kind == trace.KindNbrs) && ev.Phase < 1:
			bad = fmt.Sprintf("non-positive phase %d", ev.Phase)
		case ev.Kind == trace.KindStep && int(ev.Step) > len(trace.Steps):
			bad = fmt.Sprintf("unknown step %d", ev.Step)
		case (ev.Kind == trace.KindStep || ev.Kind == trace.KindNbrs) && ev.Aux < 0:
			bad = fmt.Sprintf("negative aux %d", ev.Aux)
		case (ev.Kind == trace.KindSend || ev.Kind == trace.KindDeliver || ev.Kind == trace.KindLost) &&
			(ev.Peer < 0 || int(ev.Peer) >= n || ev.Port < 0):
			bad = fmt.Sprintf("peer %d / port %d out of range", ev.Peer, ev.Port)
		case ev.Round < prevRound:
			bad = fmt.Sprintf("round %d after round %d breaks canonical order", ev.Round, prevRound)
		}
		if bad != "" {
			c.Violations++
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("event %d (%s): %s", i, ev, bad)
			}
		}
		prevRound = ev.Round
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	}
	return c
}

// foldEvents aggregates the stream into the per-check indexes.
func foldEvents(n int, events []trace.Event, relaxed bool) *fold {
	f := &fold{
		n:            n,
		relaxed:      relaxed,
		awakeCharged: make([]int64, n),
		stepSum:      make([]int64, n),
		crashed:      make([]bool, n),
		awakeIn:      make([]int64, n),
	}
	if relaxed {
		f.sent = map[uint64]struct{}{}
	}
	for i := range events {
		ev := &events[i]
		if f.block == 0 || ev.Round != f.round {
			f.settle()
			f.block++
			f.round = ev.Round
		}
		switch ev.Kind {
		case trace.KindAwake:
			f.awakeCharged[ev.Node]++
			f.awakeIn[ev.Node] = f.block
		case trace.KindStep:
			f.stepSum[ev.Node] += ev.Aux
			f.haveSteps = true
		case trace.KindSend:
			f.sends = append(f.sends, pairKey(ev.Node, ev.Peer))
		case trace.KindDeliver:
			f.received = append(f.received, receipt{to: ev.Node, from: ev.Peer, idx: i})
		case trace.KindCrash:
			f.crashed[ev.Node] = true
		case trace.KindPhase, trace.KindMerge:
			f.fragEvents = append(f.fragEvents, *ev)
		case trace.KindNbrs:
			f.nbrs = append(f.nbrs, *ev)
		}
	}
	f.settle()
	return f
}

// settle closes the round being folded: every delivery must reach a
// node awake in the round, and must match a send — of the same round,
// one send per delivery (strict), or of any round so far (Relaxed:
// delays and duplicate copies arrive late).
func (f *fold) settle() {
	for _, r := range f.received {
		if f.awakeIn[r.to] != f.block {
			f.asleep.add(1, "node %d received from %d in round %d while asleep", r.to, r.from, f.round)
		}
	}
	if f.relaxed {
		for _, s := range f.sends {
			f.sent[s] = struct{}{}
		}
		for _, r := range f.received {
			if _, ok := f.sent[pairKey(r.from, r.to)]; !ok {
				// The event index localises the violation in the
				// canonical stream (tracediff's coordinate system).
				f.causality.add(1, "event %d: deliver %d->%d at round %d precedes every send", r.idx, r.from, r.to, f.round)
			}
		}
	} else if len(f.received) > 0 {
		got := f.pairs[:0]
		for _, r := range f.received {
			got = append(got, pairKey(r.from, r.to))
		}
		slices.Sort(got)
		slices.Sort(f.sends)
		// Walk the delivered pairs in (from, to) order, counting each
		// pair's deliveries and sends.
		for i, j := 0, 0; i < len(got); {
			key, next := got[i], i+1
			for next < len(got) && got[next] == key {
				next++
			}
			for j < len(f.sends) && f.sends[j] < key {
				j++
			}
			sent := 0
			for j < len(f.sends) && f.sends[j] == key {
				sent++
				j++
			}
			if n := next - i; n > sent {
				f.causality.add(int64(n-sent), "round %d: %d deliveries %d->%d but %d sends", f.round, n, key>>32, uint32(key), sent)
			}
			i = next
		}
		f.pairs = got
	}
	f.sends, f.received = f.sends[:0], f.received[:0]
}

// checkAwakeBudget compares each node's awake rounds against the
// algorithm's Table 1 envelope.
func checkAwakeBudget(f *fold, info RunInfo, n int) Check {
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

// checkAwakeAttribution verifies the attributed==charged identity: per
// node, the step-attributed awake rounds equal the scheduler-charged
// awake events. Crashed nodes die mid-step, so they are excluded.
func checkAwakeAttribution(f *fold, meta trace.Meta, info RunInfo) Check {
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

// fragHistory is the result of replaying every node's fragment-label
// events in logical emission order.
type fragHistory struct {
	merges      []phaseMerge // in node order
	finalFrag   []int64      // per node, valid where known
	known       []bool
	consistency violations
}

// phaseMerge is one merge, attributed to the phase the node was in.
type phaseMerge struct {
	phase      int32
	prev, frag int64
}

// walkFragments replays phase-entry and merge events per node. The
// canonical trace order sorts a phase's closing merge AFTER the next
// phase's entry event (both are stamped with the same wake round, and
// KindPhase ranks below KindMerge), so the walk restores the logical
// order — merges before phase entries at equal rounds — then checks
// label continuity and attributes each merge to the phase the node was
// still in.
func walkFragments(f *fold) *fragHistory {
	h := &fragHistory{finalFrag: make([]int64, f.n), known: make([]bool, f.n)}
	note := func(format string, args ...interface{}) { h.consistency.add(1, format, args...) }
	byNode, start := groupByNode(f.fragEvents, f.n)
	for node := 0; node < f.n; node++ {
		evs := byNode[start[node]:start[node+1]]
		mergesFirst(evs)
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
			h.merges = append(h.merges, phaseMerge{phase: curPhase, prev: ev.Prev, frag: ev.Frag})
		}
		h.finalFrag[node], h.known[node] = curFrag, known
	}
	return h
}

// groupByNode returns evs regrouped by node with a stable counting
// sort, and where each node's run starts (node v's events are
// out[start[v]:start[v+1]]).
func groupByNode(evs []trace.Event, n int) (out []trace.Event, start []int) {
	start = make([]int, n+1)
	for i := range evs {
		start[evs[i].Node+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	out = make([]trace.Event, len(evs))
	next := append([]int(nil), start[:n]...)
	for i := range evs {
		v := evs[i].Node
		out[next[v]] = evs[i]
		next[v]++
	}
	return out, start
}

// mergesFirst moves, within each run of equal rounds, the merge events
// ahead of the phase entries, keeping each kind's order; evs is in
// round order.
func mergesFirst(evs []trace.Event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].Kind == trace.KindMerge && evs[j-1].Kind == trace.KindPhase && evs[j-1].Round == evs[j].Round; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// checkMerges verifies per-phase merge structure: label continuity and
// at most one merge per node (consistency), and the tails-into-heads
// direction (no fragment is both source and target of one phase's
// waves) that keeps the merge supergraph single-hop.
func checkMerges(h *fragHistory, meta trace.Meta) (consistency, direction Check) {
	consistency = Check{Name: CheckMergeConsistency, Status: StatusPass}
	direction = Check{Name: CheckMergeDirection, Status: StatusPass}
	if meta.Dropped > 0 {
		reason := fmt.Sprintf("%d events dropped by ring overflow", meta.Dropped)
		return skip(consistency, reason), skip(direction, reason)
	}
	consistency = h.consistency.check(consistency)
	merges := slices.Clone(h.merges)
	slices.SortStableFunc(merges, func(a, b phaseMerge) int { return cmp.Compare(a.phase, b.phase) })
	var srcs, dsts []int64
	for i := 0; i < len(merges); {
		ph, next := merges[i].phase, i
		srcs, dsts = srcs[:0], dsts[:0]
		for ; next < len(merges) && merges[next].phase == ph; next++ {
			srcs = append(srcs, merges[next].prev)
			dsts = append(dsts, merges[next].frag)
		}
		// A chained fragment is in both sorted sets; report them in
		// ascending order.
		srcs, dsts = sortedSet(srcs), sortedSet(dsts)
		for a, b := 0, 0; a < len(srcs) && b < len(dsts); {
			switch {
			case srcs[a] < dsts[b]:
				a++
			case srcs[a] > dsts[b]:
				b++
			default:
				direction.Violations++
				if direction.Detail == "" {
					direction.Detail = fmt.Sprintf("fragment %d is both merge source and target in phase %d", dsts[b], ph)
				}
				a++
				b++
			}
		}
		i = next
	}
	if direction.Violations > 0 {
		direction.Status = StatusFail
	}
	return consistency, direction
}

// sortedSet sorts xs and drops repeats, in place.
func sortedSet(xs []int64) []int64 {
	slices.Sort(xs)
	return slices.Compact(xs)
}

// checkFragmentDecay verifies the Lemma 1 / Lemma 5 shape: the number
// of distinct fragments never grows across phases, and the run ends
// with every (non-crashed) node in one fragment.
func checkFragmentDecay(f *fold, h *fragHistory, meta trace.Meta) Check {
	c := Check{Name: CheckFragmentDecay, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped by ring overflow", meta.Dropped))
	}
	var entries []trace.Event
	for _, ev := range f.fragEvents {
		if ev.Kind == trace.KindPhase {
			entries = append(entries, ev)
		}
	}
	if len(entries) == 0 {
		return skip(c, "trace has no phase events")
	}
	// Per phase, a node's fragment is its last entry's.
	slices.SortStableFunc(entries, func(a, b trace.Event) int {
		if c := cmp.Compare(a.Phase, b.Phase); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
	prevCount := -1
	var frags []int64
	for i := 0; i < len(entries); {
		ph := entries[i].Phase
		frags = frags[:0]
		for ; i < len(entries) && entries[i].Phase == ph; i++ {
			if i+1 < len(entries) && entries[i+1].Phase == ph && entries[i+1].Node == entries[i].Node {
				continue
			}
			frags = append(frags, entries[i].Frag)
		}
		count := len(sortedSet(frags))
		if prevCount >= 0 && count > prevCount {
			c.Violations++
			if c.Detail == "" {
				c.Detail = fmt.Sprintf("phase %d has %d fragments, up from %d", ph, count, prevCount)
			}
		}
		prevCount = count
	}
	frags = frags[:0]
	for node, known := range h.known {
		if known && !f.crashed[node] {
			frags = append(frags, h.finalFrag[node])
		}
	}
	if final := len(sortedSet(frags)); final != 1 {
		c.Violations++
		if c.Detail == "" {
			c.Detail = fmt.Sprintf("run ends with %d fragments, want 1", final)
		}
	}
	if c.Violations > 0 {
		c.Status = StatusFail
	}
	return c
}

// checkSparsifyDegree verifies every recorded supergraph degree stays
// within SupergraphDegreeBound.
func checkSparsifyDegree(f *fold) Check {
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

// checkCausality verifies every delivery has a matching send: in the
// same round (clean model), or in any earlier-or-equal round when
// Relaxed (interceptor delays and duplicate copies arrive late).
func checkCausality(f *fold, meta trace.Meta) Check {
	c := Check{Name: CheckCausality, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped by ring overflow", meta.Dropped))
	}
	return f.causality.check(c)
}

// checkDeliverAwake verifies no delivery reached a node that was not
// awake (and charged) in the delivery round.
func checkDeliverAwake(f *fold, meta trace.Meta) Check {
	c := Check{Name: CheckDeliverAwake, Status: StatusPass}
	if meta.Dropped > 0 {
		return skip(c, fmt.Sprintf("%d events dropped by ring overflow", meta.Dropped))
	}
	return f.asleep.check(c)
}

func fail(c Check, detail string) Check {
	c.Status = StatusFail
	c.Violations++
	c.Detail = detail
	return c
}

func skip(c Check, reason string) Check {
	c.Status = StatusSkip
	c.Detail = reason
	return c
}
