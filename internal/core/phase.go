package core

import (
	"sleepmst/internal/graph"
	"sleepmst/internal/ldt"
	"sleepmst/internal/metrics"
	"sleepmst/internal/sim"
	"sleepmst/internal/trace"
)

// phaseDriver is the GHS phase skeleton shared by Randomized-MST (§2.2),
// Deterministic-MST (§2.3) and the Corollary 1 variant: every node runs
// fixed-length phases back to back — find the fragment MOE, decide who
// merges, Merging-Fragments — until its fragment spans the graph or
// the phase bound runs out. An algorithm supplies only what differs.
type phaseDriver struct {
	// bound is the default phase cap for n nodes; Options.MaxPhases
	// overrides it.
	bound func(n int) int
	// accept resolves Options.AcceptBudget, the deterministic
	// algorithms' sparsification constant; without it the paper's 3
	// stands and the option is ignored.
	accept bool
	// blocks is the phase length in blocks for ID space size maxID.
	blocks func(maxID int64) int64
	// phase runs one phase from round start and reports whether the
	// fragment spans the graph.
	phase func(c *nodeCtx, start int64) (done bool)
}

// run executes the phases on g and assembles the verified outcome.
// after, if non-nil, runs at every node once its phases end, with the
// round the next phase would have started at and whether the fragment
// spans the graph: the hook the primitives put their aggregation
// blocks on.
func (d phaseDriver) run(g *graph.Graph, opts Options, after func(c *nodeCtx, next int64, done bool) error) (*Outcome, error) {
	if err := checkInput(g); err != nil {
		return nil, err
	}
	maxPhases := opts.MaxPhases
	if maxPhases <= 0 {
		maxPhases = d.bound(g.N())
	}
	budget := int64(MaxValidIncomingMOEs)
	if d.accept {
		var err error
		if budget, err = opts.acceptBudget(); err != nil {
			return nil, err
		}
	}
	states := ldt.SingletonStates(g)
	rec := newPhaseRecorder(opts.RecordPhases, g.N(), maxPhases)
	phasesRun := make([]int, g.N())

	res, err := sim.Run(opts.SimConfig(g), func(nd *sim.Node) error {
		c := newNodeCtx(nd, states[nd.Index()])
		c.acceptBudget = budget
		phaseLen := d.blocks(nd.MaxID()) * c.blk
		done := false
		p := 0
		for ; p < maxPhases && !done; p++ {
			c.steps.BeginPhase(p+1, c.st.FragID)
			done = d.phase(c, 1+int64(p)*phaseLen)
			rec.record(p, nd.Index(), c.st.FragID)
			phasesRun[nd.Index()] = p + 1
		}
		if after != nil {
			return after(c, 1+int64(p)*phaseLen, done)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	maxP := 0
	for _, p := range phasesRun {
		if p > maxP {
			maxP = p
		}
	}
	return finishOutcome(g, states, res, maxP, rec.counts(maxP))
}

// phaseRecorder collects fragment IDs per phase without data races:
// each node writes only its own column.
type phaseRecorder struct {
	enabled bool
	frags   [][]int64 // frags[phase][node]
}

func newPhaseRecorder(enabled bool, n, maxPhases int) *phaseRecorder {
	pr := &phaseRecorder{enabled: enabled}
	if enabled {
		pr.frags = make([][]int64, maxPhases)
		for i := range pr.frags {
			pr.frags[i] = make([]int64, n)
		}
	}
	return pr
}

func (pr *phaseRecorder) record(phase, node int, fragID int64) {
	if pr.enabled && phase < len(pr.frags) {
		pr.frags[phase][node] = fragID
	}
}

// counts returns the fragment count per executed phase. Nodes that
// halted before a phase keep fragment ID 0 in that row; rows that are
// entirely zero (never reached) are dropped.
func (pr *phaseRecorder) counts(executed int) []int {
	if !pr.enabled {
		return nil
	}
	var out []int
	for p := 0; p < executed && p < len(pr.frags); p++ {
		set := make(map[int64]bool)
		for _, f := range pr.frags[p] {
			if f != 0 {
				set[f] = true
			}
		}
		out = append(out, len(set))
	}
	return out
}

// StepClock attributes one node's awake rounds to the steps of its
// current phase: per step, one trace event plus the awake/step/<step>
// and awake/phase/<NNN> counters, so the attributed awake rounds always
// equal the charged ones (the conformance awake-attribution check).
// Every phase-structured program keeps one per node: the MST
// algorithms here and the problem suite's MIS. Both sinks are
// nil-safe, so callers never branch.
type StepClock struct {
	nd    *sim.Node
	phase int   // current 1-based phase
	awake int64 // the node's awake count when the current step began
}

// NewStepClock returns the step clock of node nd.
func NewStepClock(nd *sim.Node) StepClock { return StepClock{nd: nd} }

// BeginPhase marks the start of 1-based phase p, in which the node
// belongs to fragment frag (0 for problems without fragments).
func (s *StepClock) BeginPhase(p int, frag int64) {
	s.phase = p
	s.nd.EmitPhase(p, frag)
	s.awake = s.nd.AwakeCount()
}

// StepDone attributes the awake rounds spent since the previous
// StepDone (or BeginPhase) to step. Steps a node slept through
// entirely are skipped to keep the event volume proportional to awake
// work.
func (s *StepClock) StepDone(step trace.Step) {
	aw := s.nd.AwakeCount()
	d := aw - s.awake
	s.awake = aw
	if d == 0 {
		return
	}
	s.nd.EmitStep(s.phase, step, d)
	if m := s.nd.Metrics(); m != nil {
		m.Add(metrics.StepName(step.String()), d)
		m.Add(metrics.PhaseName(s.phase), d)
	}
}
