// Package service is the persistent concurrent MST service: a request
// scheduler that runs many certified sleeping-model computations at
// once over a bounded worker pool, with explicit admission control
// and per-request isolation.
//
// One Service owns a sweep.Pool. Every admitted request runs as its
// own cell — own graph, seed, trace recorder, metrics
// registry, and (optionally) its own wire backend — and produces a
// JSON Artifact holding the conformance verdict, the run summary, and
// any wire accounting. Per-request registries are folded into one
// service-level metrics registry; because every counter commutes, the
// merged registry is byte-identical for any worker count and any
// completion order, which is the service's determinism contract: a
// fixed-seed request mix yields identical per-request verdicts and
// identical merged metrics whether it is served by one worker or
// eight.
//
// Admission is explicit, never implicit queueing delay: a full queue
// rejects with StatusOverloaded, an invalid request with
// StatusInvalid, a draining service with StatusShuttingDown. An
// admitted request is bounded by a deadline whose clock starts at
// admission (queue wait counts) and that cancels the running cell at
// a round barrier (sim.ErrCanceled), so a stuck or oversized run can
// neither wedge a worker forever nor leak its node programs.
//
// Server (server.go) exposes the same Submit surface over a
// length-prefixed request/response wire protocol (wire.go);
// cmd/mstserve -serve is the daemon around it and cmd/mstload the
// closed-loop client.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/metrics"
	"sleepmst/internal/problem"
	"sleepmst/internal/sim"
	"sleepmst/internal/sweep"
	"sleepmst/internal/trace"
	"sleepmst/internal/transport"
)

// Service defaults; every Config zero field falls back to one.
const (
	// DefaultQueueDepth bounds the admission queue (waiting requests;
	// requests a worker already picked up do not count).
	DefaultQueueDepth = 64
	// DefaultDeadline bounds one request end to end: the clock starts
	// at admission, so time spent waiting in the queue counts against
	// it.
	DefaultDeadline = 2 * time.Minute
	// DefaultMaxN caps the per-request node count at admission.
	DefaultMaxN = 4096
	// DefaultTraceCap is the per-request trace-recorder capacity when
	// the request does not choose one.
	DefaultTraceCap = 1 << 18
	// DefaultMaxTraceCap caps the capacity a request may choose.
	DefaultMaxTraceCap = 1 << 20
)

// Config parameterizes a Service. The zero value is usable: every
// field falls back to the package default.
type Config struct {
	// Workers is the worker-pool size (0 or negative = GOMAXPROCS; 1
	// serializes requests, the determinism control).
	Workers int
	// QueueDepth bounds the admission queue (0 = DefaultQueueDepth).
	QueueDepth int
	// DefaultDeadline bounds requests that do not set their own
	// deadline (0 = DefaultDeadline).
	DefaultDeadline time.Duration
	// MaxN caps the per-request node count (0 = DefaultMaxN).
	MaxN int
	// MaxTraceCap caps the per-request trace capacity (0 =
	// DefaultMaxTraceCap).
	MaxTraceCap int
}

// withDefaults resolves the zero fields.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = DefaultDeadline
	}
	if c.MaxN <= 0 {
		c.MaxN = DefaultMaxN
	}
	if c.MaxTraceCap <= 0 {
		c.MaxTraceCap = DefaultMaxTraceCap
	}
	return c
}

// Service schedules certified-computation requests over a bounded
// worker pool. Create with New, stop with Drain; Submit is safe for
// concurrent use from any number of goroutines.
type Service struct {
	cfg  Config
	pool *sweep.Pool
	reg  *metrics.Registry
}

// New starts a service with cfg.Workers workers and a bounded
// admission queue. Pair every New with a Drain.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:  cfg,
		pool: sweep.NewPool(sweep.Config{Workers: cfg.Workers}, cfg.QueueDepth),
		reg:  metrics.New(),
	}
}

// Metrics returns the live service-level registry: per-request run
// registries folded together plus the service/* request accounting.
// Snapshot it after Drain for a stable view.
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// Drain stops admission (new Submits return StatusShuttingDown),
// finishes every admitted request, and returns once the pool is idle.
// Safe to call more than once.
func (s *Service) Drain() { s.pool.Drain() }

// Submit runs one request to completion — through validation,
// admission, execution, and certification — and returns its response.
// It blocks the calling goroutine for the request's lifetime (the
// closed-loop client model); concurrency comes from concurrent
// callers, capacity from the worker pool.
func (s *Service) Submit(req Request) Response {
	p, detail := s.validate(&req)
	if detail != "" {
		return s.finish(req, Response{ID: req.ID, Status: StatusInvalid, Detail: detail}, "")
	}
	// The deadline clock starts here, before admission, so queue wait
	// counts against it: a request cannot spend QueueDepth x deadline
	// waiting for a worker.
	deadline := req.Deadline
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	cancel := make(chan struct{})
	timer := time.AfterFunc(deadline, func() { close(cancel) })
	defer timer.Stop()
	done := make(chan Response, 1)
	err := s.pool.TrySubmit(func() { done <- s.execute(req, p, deadline, cancel) })
	switch {
	case errors.Is(err, sweep.ErrPoolSaturated):
		return s.finish(req, Response{ID: req.ID, Status: StatusOverloaded,
			Detail: fmt.Sprintf("admission queue full (%d waiting requests)", s.cfg.QueueDepth)}, "")
	case err != nil:
		return s.finish(req, Response{ID: req.ID, Status: StatusShuttingDown,
			Detail: "service is draining"}, "")
	}
	return <-done
}

// edgeCap is the admitted per-request edge count, 16·MaxN (65,536 at
// the default MaxN).
func (s *Service) edgeCap() int { return 16 * s.cfg.MaxN }

// validate checks the request against the admission contract and
// resolves the problem. A non-empty detail string is the rejection
// reason (StatusInvalid).
func (s *Service) validate(req *Request) (problem.Problem, string) {
	p, err := problem.Lookup(req.Problem)
	if err != nil {
		return nil, err.Error()
	}
	if !validGraphKind(req.Graph) {
		return nil, fmt.Sprintf("unknown graph kind %q (want %s)", req.Graph, GraphKindList)
	}
	if req.N < 1 || req.N > s.cfg.MaxN {
		return nil, fmt.Sprintf("n=%d outside the admitted range [1, %d]", req.N, s.cfg.MaxN)
	}
	if req.M < 0 || req.Rows < 0 {
		return nil, fmt.Sprintf("negative m=%d or rows=%d", req.M, req.Rows)
	}
	if req.Graph == "ring" && req.N < 3 {
		return nil, fmt.Sprintf("ring requires n >= 3, got %d", req.N)
	}
	if req.Rows > req.N {
		return nil, fmt.Sprintf("rows=%d exceeds n=%d", req.Rows, req.N)
	}
	if req.Graph == "sensor" && (math.IsNaN(req.Radius) || req.Radius < 0 || req.Radius > 2) {
		return nil, fmt.Sprintf("sensor radius %v outside [0, 2]", req.Radius)
	}
	// BuildGraph cannot be canceled, so the deadline cannot stop an
	// oversized build: bound the edge count before building.
	if e := requestedEdges(req.Graph, req.N, req.M, req.Radius); e > float64(s.edgeCap()) {
		return nil, fmt.Sprintf("%s graph asks for %.0f edges, over the admitted edge cap %d", req.Graph, e, s.edgeCap())
	}
	switch req.Transport {
	case "", "none", "inproc", "tcp":
	default:
		return nil, fmt.Sprintf("unknown transport %q (want none, inproc, or tcp)", req.Transport)
	}
	if req.TraceCap < 0 || req.TraceCap > s.cfg.MaxTraceCap {
		return nil, fmt.Sprintf("trace cap %d outside [0, %d]", req.TraceCap, s.cfg.MaxTraceCap)
	}
	if req.Deadline < 0 {
		return nil, fmt.Sprintf("negative deadline %v", req.Deadline)
	}
	return p, ""
}

// execute runs one admitted request as an isolated cell on a pool
// worker and certifies the result. The deadline clock started in
// Submit; cancel closes when it expires. A panic anywhere in the cell
// is recovered into StatusInternal so no request can kill the worker
// pool (and with it the daemon).
func (s *Service) execute(req Request, p problem.Problem, deadline time.Duration, cancel <-chan struct{}) (resp Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = s.finish(req, Response{ID: req.ID, Status: StatusInternal,
				Detail: fmt.Sprintf("panic in request cell: %v", r)}, "")
		}
	}()
	select {
	case <-cancel:
		// The deadline expired while the request sat in the admission
		// queue; don't start work that is already overdue.
		return s.finish(req, Response{ID: req.ID, Status: StatusDeadline,
			Detail: fmt.Sprintf("deadline %v exceeded while queued", deadline)}, "")
	default:
	}
	g, err := BuildGraph(req.Graph, req.N, req.M, req.Rows, req.Radius, req.Seed)
	if err != nil {
		return s.finish(req, Response{ID: req.ID, Status: StatusInternal, Detail: err.Error()}, "")
	}
	// Validation bounds the request's N, but derived topologies (grid
	// rounds n up to rows*cols) can build more nodes than asked for;
	// re-check the built size against the same admission cap.
	if g.N() > s.cfg.MaxN {
		return s.finish(req, Response{ID: req.ID, Status: StatusInvalid,
			Detail: fmt.Sprintf("built %s graph has %d nodes, over the admitted cap %d", req.Graph, g.N(), s.cfg.MaxN)}, "")
	}
	if g.M() > s.edgeCap() {
		return s.finish(req, Response{ID: req.ID, Status: StatusInvalid,
			Detail: fmt.Sprintf("built %s graph has %d edges, over the admitted edge cap %d", req.Graph, g.M(), s.edgeCap())}, "")
	}
	var tx transport.Transport
	switch req.Transport {
	case "inproc":
		tx = transport.NewInproc()
	case "tcp":
		tx = transport.NewTCP(transport.TCPConfig{})
	}
	if tx != nil {
		defer tx.Close()
	}
	traceCap := req.TraceCap
	if traceCap == 0 {
		traceCap = DefaultTraceCap
	}

	reg := metrics.New()
	cell, err := RunCell(p, g, core.Options{
		Seed:      req.Seed,
		Metrics:   reg,
		Transport: tx,
		Cancel:    cancel,
	}, traceCap)
	if err != nil {
		if errors.Is(err, sim.ErrCanceled) {
			return s.finish(req, Response{ID: req.ID, Status: StatusDeadline,
				Detail: fmt.Sprintf("deadline %v exceeded: %v", deadline, err)}, "")
		}
		return s.finish(req, Response{ID: req.ID, Status: StatusInternal, Detail: err.Error()}, "")
	}
	a, meta, events := &cell.Artifact, cell.Meta, cell.Events
	a.ID, a.Graph, a.Transport = req.ID, req.Graph, req.Transport

	resp = Response{ID: req.ID, Status: StatusOK}
	if !cell.Pass() {
		resp.Status = StatusViolation
		resp.Detail = violationDetail(a.Verdict, cell.Verify)
	}
	data, err := json.Marshal(a)
	if err != nil {
		return s.finish(req, Response{ID: req.ID, Status: StatusInternal,
			Detail: fmt.Sprintf("artifact marshal: %v", err)}, "")
	}
	resp.Artifact = data
	traceLen := 0
	if req.WantTrace {
		traceLen = trace.JSONLSize(meta, events)
	}
	// A response the wire cannot frame would never reach a Server
	// client, so every caller gets the internal status instead, and
	// its trace is never rendered; the run itself completed, so its
	// counters still fold in below.
	if size := responseBodyBytes(resp, traceLen); size > MaxFrameBytes {
		resp = Response{ID: req.ID, Status: StatusInternal,
			Detail: fmt.Sprintf("response frame is %d bytes, over the %d-byte MaxFrameBytes cap", size, MaxFrameBytes)}
	} else if req.WantTrace {
		b := bytes.NewBuffer(make([]byte, 0, traceLen))
		if err := trace.WriteEventsJSONL(b, meta, events); err != nil {
			return s.finish(req, Response{ID: req.ID, Status: StatusInternal,
				Detail: fmt.Sprintf("trace render: %v", err)}, "")
		}
		resp.Trace = b.Bytes()
	}
	// Fold the completed run's counters into the service registry —
	// only completed runs: a canceled cell's partial counters would
	// depend on where the deadline happened to land.
	s.reg.Merge(reg)
	return s.finish(req, resp, p.Name())
}

// finish records the request accounting and returns resp. canonical
// is the resolved problem name for completed runs ("" otherwise).
func (s *Service) finish(req Request, resp Response, canonical string) Response {
	s.reg.Add(metrics.ServiceRequests, 1)
	s.reg.Add(metrics.ServiceStatusName(resp.Status.String()), 1)
	if canonical != "" {
		s.reg.Add(metrics.ServiceProblemName(canonical), 1)
	}
	return resp
}

// violationDetail summarizes the failing checks of a violation.
func violationDetail(v *conform.Verdict, verify error) string {
	var parts []string
	for _, c := range v.Failures() {
		parts = append(parts, c.Name)
	}
	if verify != nil {
		parts = append(parts, verify.Error())
	}
	return "failed: " + strings.Join(parts, ", ")
}
