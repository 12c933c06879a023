package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"sleepmst/internal/conform"
	"sleepmst/internal/problem"
	"sleepmst/internal/service"
	"sleepmst/internal/trace"
)

// summary is what the checks after a load phase extract from the first
// pass. Every field is a deterministic function of the seed on a
// deterministic service.
type summary struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Requests  int     `json:"requests_per_pass"`
	FailedIDs []int64 `json:"failed_ids"`
	// FailedWhy maps each failed id to its status.
	FailedWhy     map[int64]string `json:"failed_status"`
	FailedFrac    float64          `json:"failed_frac"`
	CoverageFrac  float64          `json:"coverage_frac"`
	AwakeMaxMean  float64          `json:"awake_max_mean"`
	RoundsMean    float64          `json:"rounds_mean"`
	ChecksEval    int              `json:"checks_evaluated"`
	ChecksSkipped int              `json:"checks_skipped"`
	TraceKept     int64            `json:"trace_events_kept"`
	TraceDropped  int64            `json:"trace_events_dropped"`
	VerdictDigest string           `json:"verdict_digest"`
	// served holds the first pass's ok responses, traces included.
	served map[int64]service.Response
}

// checkLoad checks every output of a load phase and summarizes its
// first pass. Any wrong output is an error: an ok artifact that does
// not parse, does not match its request, or does not pass; a shipped
// trace that does not re-certify to the served verdict; a violation; a
// rejection of a request the generator made valid; or a later pass
// answering a request differently from the first.
//
// The first pass's traces are read back from traces; with keep set the
// summary holds on to them.
func checkLoad(w workload, seed int64, reqs []service.Request, res *loadResult, traces *spill, keep bool) (*summary, error) {
	sum := &summary{
		Workload: w.name, Seed: seed, Requests: len(reqs), FailedIDs: []int64{},
		FailedWhy: map[int64]string{}, served: map[int64]service.Response{},
	}
	first := make([]*outcome, len(reqs))
	for i := range res.outcomes {
		o := &res.outcomes[i]
		if o.pass == 0 {
			first[o.id] = o
		}
	}
	for i, o := range first {
		if o == nil {
			return nil, fmt.Errorf("request %d: never issued in the first pass", i)
		}
	}
	checked := checkAll(reqs, first, traces)
	digest := sha256.New()
	var awake, rounds float64
	var evaluated, total int
	for i, o := range first {
		req := reqs[i]
		fmt.Fprintf(digest, "%d|%s|", o.id, o.status)
		digest.Write(o.sum[:])
		switch o.status {
		case service.StatusOK.String():
		case service.StatusOverloaded.String(), service.StatusDeadline.String(),
			service.StatusInternal.String(), statusUnanswered:
			sum.FailedIDs = append(sum.FailedIDs, o.id)
			sum.FailedWhy[o.id] = o.status
			continue
		default:
			return nil, fmt.Errorf("request %d (%s %s n=%d): wrong output: %s: %s",
				i, req.Problem, req.Graph, req.N, o.status, o.resp.Detail)
		}
		c := checked[i]
		if c.err != nil {
			return nil, fmt.Errorf("request %d (%s %s n=%d): wrong output: %w", i, req.Problem, req.Graph, req.N, c.err)
		}
		if keep {
			sum.served[o.id] = c.resp
		}
		awake += float64(c.a.Run.AwakeMax)
		rounds += float64(c.a.Run.Rounds)
		for _, ch := range c.a.Verdict.Checks {
			total++
			if ch.Status != conform.StatusSkip {
				evaluated++
			}
		}
		sum.TraceKept += c.meta.Events
		sum.TraceDropped += c.meta.Dropped
	}
	for _, o := range res.outcomes {
		if ref := first[o.id]; o.status != ref.status || o.sum != ref.sum {
			return nil, fmt.Errorf("request %d: pass %d answered %s, pass 0 answered %s (outputs differ)",
				o.id, o.pass, o.status, ref.status)
		}
	}
	ok := len(reqs) - len(sum.FailedIDs)
	sum.FailedFrac = float64(len(sum.FailedIDs)) / float64(len(reqs))
	if ok > 0 {
		sum.AwakeMaxMean = awake / float64(ok)
		sum.RoundsMean = rounds / float64(ok)
	}
	if total > 0 {
		sum.CoverageFrac = float64(evaluated) / float64(total)
	}
	sum.ChecksEval, sum.ChecksSkipped = evaluated, total-evaluated
	sum.VerdictDigest = hex.EncodeToString(digest.Sum(nil))
	return sum, nil
}

// checked is the outcome of checking one ok response.
type checked struct {
	resp service.Response
	a    *service.Artifact
	meta trace.Meta
	err  error
}

// checkAll checks the first pass's ok responses on every core. This
// runs outside the timed window, and re-certifying the shipped traces
// dominates it.
func checkAll(reqs []service.Request, first []*outcome, traces *spill) []checked {
	out := make([]checked, len(reqs))
	work := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < runtime.GOMAXPROCS(0); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				c := &out[i]
				c.resp = first[i].resp
				if c.resp.Trace, c.err = traces.get(first[i].traceOff, first[i].traceLen); c.err == nil {
					c.a, c.meta, c.err = checkResponse(reqs[i], c.resp)
				}
			}
		}()
	}
	for i, o := range first {
		if o.status == service.StatusOK.String() {
			work <- i
		}
	}
	close(work)
	wg.Wait()
	return out
}

// checkResponse checks one ok response: the artifact parses, answers
// this request, and passes; a shipped trace re-certifies with
// conform.CheckTrace to the same catalog verdict the service returned.
// It returns the artifact and the shipped trace's header (zero without
// a trace).
func checkResponse(req service.Request, resp service.Response) (*service.Artifact, trace.Meta, error) {
	var a service.Artifact
	if err := json.Unmarshal(resp.Artifact, &a); err != nil {
		return nil, trace.Meta{}, fmt.Errorf("artifact does not parse: %w", err)
	}
	p, err := problem.Lookup(req.Problem)
	if err != nil {
		return nil, trace.Meta{}, err
	}
	if a.ID != req.ID || a.Seed != req.Seed || a.Problem != p.Name() || a.Graph != req.Graph ||
		a.Transport != req.Transport || a.N < req.N {
		return nil, trace.Meta{}, fmt.Errorf("artifact answers id=%d seed=%d %s %s n=%d over %q", a.ID, a.Seed, a.Problem, a.Graph, a.N, a.Transport)
	}
	if a.Verdict == nil || !a.Verdict.Pass || !a.Run.VerifyPassed {
		return nil, trace.Meta{}, fmt.Errorf("ok response whose verdict does not pass: %+v", a.Verdict)
	}
	if !req.WantTrace {
		if len(resp.Trace) > 0 {
			return nil, trace.Meta{}, fmt.Errorf("trace shipped without WantTrace")
		}
		return &a, trace.Meta{}, nil
	}
	meta, events, err := trace.ReadJSONL(bytes.NewReader(resp.Trace))
	if err != nil {
		return nil, trace.Meta{}, fmt.Errorf("trace does not parse: %w", err)
	}
	v := conform.CheckTrace(meta, events, conform.RunInfo{Algorithm: a.Problem, N: a.N, Seed: a.Seed, Budget: p.Budget})
	if !v.Pass {
		return nil, trace.Meta{}, fmt.Errorf("shipped trace fails re-certification: %v", v.Failures())
	}
	if len(v.Checks) > len(a.Verdict.Checks) || !reflect.DeepEqual(v.Checks, a.Verdict.Checks[:len(v.Checks)]) {
		return nil, trace.Meta{}, fmt.Errorf("re-certified verdict %v differs from the served one %v", v.Checks, a.Verdict.Checks)
	}
	return &a, meta, nil
}
