package service

import (
	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/problem"
	"sleepmst/internal/trace"
	"sleepmst/internal/transport"
)

// Cell is one certified run: its artifact and the canonical trace the
// verdict was computed from.
type Cell struct {
	// Artifact holds the verdict, run summary and wire accounting.
	// RunCell leaves the request-level fields (ID, Graph, Transport)
	// for the caller to fill.
	Artifact Artifact
	// Meta and Events are the run's canonical trace: the certificate
	// replayed them, and a trace export renders them.
	Meta   trace.Meta
	Events []trace.Event
	// Verify is the problem's correctness oracle result (nil = pass).
	Verify error
}

// Pass reports whether both the conformance verdict and the
// correctness oracle passed.
func (c *Cell) Pass() bool { return c.Artifact.Verdict.Pass && c.Verify == nil }

// RunCell runs p on g with a fresh trace recorder of traceCap events
// and certifies the result: the conformance verdict over the canonical
// trace plus the problem's correctness oracle, folded into one
// Artifact. opts carries the caller's seed, engine, transport, metrics
// registry and cancel channel; its Trace field is replaced by the
// cell's recorder. A metered opts.Transport contributes the wire
// section. It is the one run-and-certify path of the service, of
// mstserve's one-shot mode and of mstbench's conformance runs.
func RunCell(p problem.Problem, g *graph.Graph, opts core.Options, traceCap int) (*Cell, error) {
	// Keep only what is needed past the run: opts holds the recorder,
	// whose ring must be garbage before the verdict replay starts.
	seed, tx := opts.Seed, opts.Transport
	rec := trace.NewRecorder(traceCap)
	opts.Trace = rec
	r, err := p.Run(g, opts)
	if err != nil {
		return nil, err
	}
	meta, events := rec.Meta(), rec.Events()
	verdict := conform.Suite{
		Info:   conform.RunInfo{Algorithm: p.Name(), N: g.N(), Seed: seed, Budget: p.Budget},
		Meta:   meta,
		Events: events,
		Extra:  []conform.Check{p.ConformCheck(g, r)},
	}.Verdict()
	verify := p.Verify(g, r)
	c := &Cell{Meta: meta, Events: events, Verify: verify, Artifact: Artifact{
		Schema:  ArtifactSchema,
		Problem: p.Name(),
		N:       g.N(),
		M:       g.M(),
		Seed:    seed,
		Verdict: verdict,
		Run: RunSummary{
			AwakeMax:     r.Sim.MaxAwake(),
			AwakeAvg:     r.Sim.MeanAwake(),
			Rounds:       r.Sim.Rounds,
			BusyRounds:   r.Sim.BusyRounds,
			Sent:         r.Sim.MessagesSent,
			Delivered:    r.Sim.MessagesDelivered,
			Lost:         r.Sim.MessagesLost,
			BitsSent:     r.Sim.BitsSent,
			Phases:       r.Phases,
			VerifyPassed: verify == nil,
		},
	}}
	if r.Outcome != nil {
		c.Artifact.Run.MSTWeight = graph.TotalWeight(r.Outcome.MSTEdges)
	}
	if st, ok := tx.(transport.Statser); ok {
		w := st.TransportStats()
		c.Artifact.Wire = &WireSummary{
			FramesSent:     w.FramesSent,
			FramesRecv:     w.FramesRecv,
			WireBytes:      w.WireBytes,
			Dials:          w.Dials,
			Redials:        w.Redials,
			SendRetries:    w.SendRetries,
			InjectedDrops:  w.InjectedDrops,
			InjectedDelays: w.InjectedDelays,
		}
	}
	return c, nil
}
