package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/metrics"
	"sleepmst/internal/problem"
	"sleepmst/internal/service"
	"sleepmst/internal/sim"
	"sleepmst/internal/trace"
	"sleepmst/internal/transport"
)

// layerTotals accumulates the replay's per-layer measurements over the
// first pass; layerMetrics turns them into the per-layer report.
type layerTotals struct {
	cells int
	// Per-cell sums.
	requestEncode, responseEncode, responseDecode, submit time.Duration
	responseBytes                                         int64
	decoded                                               int
	gap                                                   time.Duration
	gapCells                                              int
	build, run, bareRun, canonical, export, parse         time.Duration
	certify, recheck, verify, merge                       time.Duration
	exportBytes                                           int64
	messages, awakeNodeRounds, bareAllocs, bareBytes      int64
	kept, dropped                                         int64
	evaluated, skipped                                    int64
	inprocRun                                             time.Duration
	inprocAllocs, plainAllocs                             int64
	frames, wireBytes                                     int64
}

// measured is one timed call's wall time plus the heap allocations it
// made, read from runtime.MemStats (the replay is serial, and the
// service is idle while it runs).
type measured struct {
	wall   time.Duration
	allocs int64
	bytes  int64
}

func measure(f func()) measured {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return measured{wall: wall, allocs: int64(after.Mallocs - before.Mallocs), bytes: int64(after.TotalAlloc - before.TotalAlloc)}
}

// replay re-executes every first-pass request serially through the
// public function of each layer, in the order the service runs them,
// with a span around each call. Each replayed artifact (and shipped
// trace) must be byte-identical to the one the server returned, and a
// request the server left unanswered must fail to frame the same way.
// s is the idle server the load ran against.
func replay(s *server, w workload, reqs []service.Request, served *summary, sp *spans) (*layerTotals, error) {
	c, err := dial(s.addr)
	if err != nil {
		return nil, err
	}
	defer c.conn.Close()
	t := &layerTotals{}
	merged := metrics.New()
	for _, req := range reqs {
		root := sp.start("replay", "cell", req.ID, -1)
		if err := replayCell(s.svc, c, w.readDeadline, req, served, merged, t, sp, root); err != nil {
			return nil, fmt.Errorf("replay of request %d (%s %s n=%d): %w", req.ID, req.Problem, req.Graph, req.N, err)
		}
		sp.end(root)
		t.cells++
	}
	return t, nil
}

func replayCell(svc *service.Service, c *client, deadline time.Duration, req service.Request, served *summary,
	merged *metrics.Registry, t *layerTotals, sp *spans, root int64) error {
	failed := served.FailedWhy
	timed := func(layer, name string, f func()) measured {
		s := sp.start(layer, name, req.ID, root)
		m := measure(f)
		sp.end(s)
		return m
	}

	var reqFrame []byte
	var err error
	m := timed("service", "request_encode", func() { reqFrame, err = service.AppendRequest(nil, req) })
	if err != nil || len(reqFrame) == 0 {
		return fmt.Errorf("request encode: %v", err)
	}
	t.requestEncode += m.wall

	var g *graph.Graph
	t.build += timed("graph", "build", func() {
		g, err = service.BuildGraph(req.Graph, req.N, req.M, req.Rows, req.Radius, req.Seed)
	}).wall
	if err != nil {
		return err
	}
	p, err := problem.Lookup(req.Problem)
	if err != nil {
		return err
	}

	// The service's run: its default trace capacity, a per-request
	// metrics registry, and (for inproc requests) a wire backend. The
	// plain twin runs the same cell without a backend, so their
	// difference is the transport layer's cost.
	type cellRun struct {
		rec *trace.Recorder
		reg *metrics.Registry
		tx  transport.Transport
		r   *problem.Result
		m   measured
	}
	runWith := func(layer, name string, inproc bool) (*cellRun, error) {
		c := &cellRun{rec: trace.NewRecorder(service.DefaultTraceCap), reg: metrics.New()}
		if inproc {
			c.tx = transport.NewInproc()
			defer c.tx.Close()
		}
		var runErr error
		c.m = timed(layer, name, func() {
			c.r, runErr = p.Run(g, core.Options{Engine: sim.EngineEvent, Seed: req.Seed, Trace: c.rec, Metrics: c.reg, Transport: c.tx})
		})
		return c, runErr
	}
	plain, err := runWith("sim", "run", false)
	if err != nil {
		return err
	}
	inproc, err := runWith("transport", "inproc_run", true)
	if err != nil {
		return err
	}
	var bare *problem.Result
	mb := timed("sim", "bare_run", func() { bare, err = p.Run(g, core.Options{Engine: sim.EngineEvent, Seed: req.Seed}) })
	if err != nil {
		return err
	}
	t.run += plain.m.wall
	t.bareRun += mb.wall
	t.bareAllocs += mb.allocs
	t.bareBytes += mb.bytes
	t.messages += bare.Sim.MessagesSent
	for _, a := range bare.Sim.AwakePerNode {
		t.awakeNodeRounds += a
	}
	t.inprocRun += inproc.m.wall
	t.inprocAllocs += inproc.m.allocs
	t.plainAllocs += plain.m.allocs
	st := inproc.tx.(transport.Statser).TransportStats()
	t.frames += st.FramesSent
	t.wireBytes += st.WireBytes

	cell := plain
	if req.Transport == "inproc" {
		cell = inproc
	}
	var events []trace.Event
	t.canonical += timed("trace", "canonical", func() { events = cell.rec.Events() }).wall
	meta := cell.rec.Meta()
	t.kept += meta.Events
	t.dropped += meta.Dropped

	var verdict *conform.Verdict
	t.certify += timed("conform", "certify", func() {
		verdict = conform.Suite{
			Info:   conform.RunInfo{Algorithm: p.Name(), N: g.N(), Seed: req.Seed, Budget: p.Budget},
			Meta:   meta,
			Events: events,
			Extra:  []conform.Check{p.ConformCheck(g, cell.r)},
		}.Verdict()
	}).wall
	for _, c := range verdict.Checks {
		if c.Status == conform.StatusSkip {
			t.skipped++
		} else {
			t.evaluated++
		}
	}
	var verr error
	t.verify += timed("problem", "verify", func() { verr = p.Verify(g, cell.r) }).wall

	artifact, err := marshalArtifact(req, p, g, verdict, cell.r, verr, cell.tx, sp, root)
	if err != nil {
		return err
	}
	t.merge += timed("metrics", "merge", func() { merged.Merge(cell.reg) }).wall

	// The wire must be invisible to the model: the twin run records the
	// same trace header and yields the same run summary.
	twin, twinReq := inproc, req
	twinReq.Transport = "inproc"
	if cell == inproc {
		twin, twinReq.Transport = plain, ""
	}
	twinArtifact, err := marshalArtifact(twinReq, p, g, verdict, twin.r, verr, twin.tx, nil, root)
	if err != nil {
		return err
	}
	if err := sameModel(artifact, twinArtifact); err != nil || twin.rec.Meta() != meta {
		return fmt.Errorf("inproc and plain runs disagree: %v (trace %+v vs %+v)", err, twin.rec.Meta(), meta)
	}

	var jsonl bytes.Buffer
	t.export += timed("trace", "export", func() { err = cell.rec.WriteJSONL(&jsonl) }).wall
	if err != nil {
		return err
	}
	t.exportBytes += int64(jsonl.Len())

	resp := service.Response{ID: req.ID, Status: service.StatusOK, Artifact: artifact}
	if !verdict.Pass || verr != nil {
		resp.Status = service.StatusViolation
	}
	if req.WantTrace {
		resp.Trace = jsonl.Bytes()
	}
	var frame []byte
	m = timed("service", "response_encode", func() { frame, err = service.AppendResponse(nil, resp) })
	t.responseEncode += m.wall
	t.responseBytes += int64(len(resp.Artifact) + len(resp.Trace))
	if why, unanswered := failed[req.ID]; unanswered {
		// The server ran this request but its response never arrived:
		// the replay must hit the same framing failure.
		if err == nil {
			return fmt.Errorf("served %s, but its %d-byte response frames fine", why, len(frame))
		}
	} else {
		if err != nil {
			return fmt.Errorf("response encode: %w", err)
		}
		if resp.Status != service.StatusOK {
			return fmt.Errorf("replayed verdict does not pass")
		}
		if !bytes.Equal(artifact, served.served[req.ID].Artifact) {
			return fmt.Errorf("replayed artifact differs from the served one:\n  served:   %s\n  replayed: %s",
				served.served[req.ID].Artifact, artifact)
		}
		if !bytes.Equal(resp.Trace, served.served[req.ID].Trace) {
			return fmt.Errorf("replayed trace differs from the served one")
		}
		var decoded service.Response
		_, k := binary.Uvarint(frame)
		t.decoded++
		t.responseDecode += timed("service", "response_decode", func() { decoded, err = service.DecodeResponse(frame[k:]) }).wall
		if err != nil || decoded.ID != req.ID || !bytes.Equal(decoded.Artifact, artifact) {
			return fmt.Errorf("response frame does not decode to itself: %v", err)
		}
	}

	var (
		pmeta   trace.Meta
		pevents []trace.Event
	)
	t.parse += timed("trace", "parse", func() { pmeta, pevents, err = trace.ReadJSONL(&jsonl) }).wall
	if err != nil {
		return fmt.Errorf("exported trace does not parse: %w", err)
	}
	var rv *conform.Verdict
	t.recheck += timed("conform", "recheck", func() {
		rv = conform.CheckTrace(pmeta, pevents, conform.RunInfo{Algorithm: p.Name(), N: g.N(), Seed: req.Seed, Budget: p.Budget})
	}).wall
	if !rv.Pass {
		return fmt.Errorf("exported trace fails re-certification: %v", rv.Failures())
	}

	// The time inside Service.Submit for the same request on the idle
	// service, next to a serial client round trip through the server;
	// both must answer what the load was answered.
	var sresp service.Response
	m = timed("service", "submit", func() { sresp = svc.Submit(req) })
	t.submit += m.wall
	if _, unanswered := failed[req.ID]; unanswered {
		return nil
	}
	if !bytes.Equal(sresp.Artifact, artifact) {
		return fmt.Errorf("Service.Submit's artifact differs from the replayed one")
	}
	var wresp service.Response
	rt := timed("server", "roundtrip", func() { wresp, err = c.roundTrip(req, deadline) })
	if err != nil || !bytes.Equal(wresp.Artifact, artifact) {
		return fmt.Errorf("serial round trip does not return the replayed artifact (%v)", err)
	}
	t.gap += rt.wall - m.wall
	t.gapCells++
	return nil
}

// marshalArtifact assembles and marshals the artifact the service
// builds for a completed run. With sp non-nil the marshal is a span.
func marshalArtifact(req service.Request, p problem.Problem, g *graph.Graph, verdict *conform.Verdict,
	r *problem.Result, verr error, tx transport.Transport, sp *spans, root int64) ([]byte, error) {
	a := service.Artifact{
		Schema:    service.ArtifactSchema,
		ID:        req.ID,
		Problem:   p.Name(),
		Graph:     req.Graph,
		N:         g.N(),
		M:         g.M(),
		Seed:      req.Seed,
		Transport: req.Transport,
		Verdict:   verdict,
		Run: service.RunSummary{
			AwakeMax:     r.Sim.MaxAwake(),
			AwakeAvg:     r.Sim.MeanAwake(),
			Rounds:       r.Sim.Rounds,
			BusyRounds:   r.Sim.BusyRounds,
			Sent:         r.Sim.MessagesSent,
			Delivered:    r.Sim.MessagesDelivered,
			Lost:         r.Sim.MessagesLost,
			BitsSent:     r.Sim.BitsSent,
			Phases:       r.Phases,
			VerifyPassed: verr == nil,
		},
	}
	if r.Outcome != nil {
		a.Run.MSTWeight = graph.TotalWeight(r.Outcome.MSTEdges)
	}
	if st, ok := tx.(transport.Statser); ok {
		w := st.TransportStats()
		a.Wire = &service.WireSummary{
			FramesSent: w.FramesSent, FramesRecv: w.FramesRecv, WireBytes: w.WireBytes, Dials: w.Dials,
			Redials: w.Redials, SendRetries: w.SendRetries, InjectedDrops: w.InjectedDrops, InjectedDelays: w.InjectedDelays,
		}
	}
	var data []byte
	var err error
	if sp != nil {
		s := sp.start("service", "artifact_marshal", req.ID, root)
		data, err = json.Marshal(a)
		sp.end(s)
	} else {
		data, err = json.Marshal(a)
	}
	return data, err
}

// sameModel reports whether two artifacts agree on everything but
// their transport fields.
func sameModel(x, y []byte) error {
	var a, b service.Artifact
	if err := json.Unmarshal(x, &a); err != nil {
		return err
	}
	if err := json.Unmarshal(y, &b); err != nil {
		return err
	}
	a.Transport, a.Wire, b.Transport, b.Wire = "", nil, "", nil
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		return fmt.Errorf("%s vs %s", ja, jb)
	}
	return nil
}

// metrics renders the per-layer report: per-request means over the
// replayed pass, ratios of sums, and the tracing overhead of the
// spanned load against the untraced one (percent of throughput).
func (t *layerTotals) metrics(spanOverheadPct float64) map[string]metric {
	cells := float64(t.cells)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / cells }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / cells }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	transportNs := float64(t.inprocRun - t.run)
	return map[string]metric{
		"service.request_encode_us":   {us(t.requestEncode), "us"},
		"service.response_encode_ms":  {ms(t.responseEncode), "ms"},
		"service.response_decode_ms":  {ratio(float64(t.responseDecode)/float64(time.Millisecond), float64(t.decoded)), "ms"},
		"service.response_mb":         {float64(t.responseBytes) / 1e6 / cells, "MB"},
		"service.submit_ms":           {ms(t.submit), "ms"},
		"service.roundtrip_gap_ms":    {ratio(float64(t.gap)/float64(time.Millisecond), float64(t.gapCells)), "ms"},
		"graph.build_ms":              {ms(t.build), "ms"},
		"sim.run_ms":                  {ms(t.run), "ms"},
		"sim.bare_run_ms":             {ms(t.bareRun), "ms"},
		"sim.ns_per_awake_node_round": {ratio(float64(t.bareRun), float64(t.awakeNodeRounds)), "ns/round"},
		"sim.allocs_per_msg":          {ratio(float64(t.bareAllocs), float64(t.messages)), "allocs/msg"},
		"sim.bytes_per_msg":           {ratio(float64(t.bareBytes), float64(t.messages)), "B/msg"},
		"sim.messages_sent":           {float64(t.messages) / cells, "count"},
		"sim.awake_node_rounds":       {float64(t.awakeNodeRounds) / cells, "count"},
		"trace.record_ms":             {ms(t.run - t.bareRun), "ms"},
		"trace.events_kept":           {float64(t.kept) / cells, "count"},
		"trace.events_dropped":        {float64(t.dropped) / cells, "count"},
		"trace.kept_frac":             {ratio(float64(t.kept), float64(t.kept+t.dropped)), "frac"},
		"trace.canonical_ms":          {ms(t.canonical), "ms"},
		"trace.export_ms":             {ms(t.export), "ms"},
		"trace.export_mb":             {float64(t.exportBytes) / 1e6 / cells, "MB"},
		"trace.parse_ms":              {ms(t.parse), "ms"},
		"conform.certify_ms":          {ms(t.certify), "ms"},
		"conform.ns_per_event":        {ratio(float64(t.certify), float64(t.kept)), "ns/event"},
		"conform.checks_evaluated":    {float64(t.evaluated) / cells, "count"},
		"conform.checks_skipped":      {float64(t.skipped) / cells, "count"},
		"conform.recheck_ms":          {ms(t.recheck), "ms"},
		"problem.verify_ms":           {ms(t.verify), "ms"},
		"metrics.merge_us":            {us(t.merge), "us"},
		"transport.overhead_ms":       {transportNs / float64(time.Millisecond) / cells, "ms"},
		"transport.frames":            {float64(t.frames) / cells, "count"},
		"transport.wire_mb":           {float64(t.wireBytes) / 1e6 / cells, "MB"},
		"transport.ns_per_frame":      {ratio(transportNs, float64(t.frames)), "ns/frame"},
		"transport.allocs_per_frame":  {ratio(float64(t.inprocAllocs-t.plainAllocs), float64(t.frames)), "allocs/frame"},
		"bench.span_overhead_pct":     {spanOverheadPct, "%"},
	}
}
