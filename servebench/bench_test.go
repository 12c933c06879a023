package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"sleepmst/internal/service"
)

// TestBenchmarkJSONMatchesReport pins BENCHMARK.json to what the
// benchmark prints: the same workloads, and the same metric names and
// units in each mode.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, want)
	}
	load := &loadResult{outcomes: []outcome{{status: "ok", latency: time.Millisecond}}, wall: time.Second, cpu: time.Millisecond}
	e2e := endToEnd(load, &summary{}, 1, []service.Request{{Problem: latencyProblem}})
	compare := func(kind string, spec []named, got map[string]metric) {
		if len(spec) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(spec), len(got))
		}
		for _, m := range spec {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s metric %s (%s): benchmark reports %+v (present %v)", kind, m.Name, m.Unit, g, ok)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, e2e.Metrics)
	compare("per_layer", spec.PerLayer, (&layerTotals{cells: 1}).metrics(0))
}

// TestRequestsAreSeededAndStratified checks that a seed fixes the
// request list, another seed changes it, and every list holds each
// (problem, graph, size) stratum its replica count of times, and the
// sampled list one request per (problem, size).
func TestRequestsAreSeededAndStratified(t *testing.T) {
	for _, w := range workloads {
		a, b := w.requests(7, false), w.requests(7, false)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different lists", w.name)
		}
		if reflect.DeepEqual(a, w.requests(8, false)) {
			t.Errorf("%s: seeds 7 and 8 gave the same list", w.name)
		}
		type key struct {
			problem, graph string
			size           int
		}
		want, got := map[key]int{}, map[key]int{}
		sampled := 0
		for _, st := range w.strata {
			for _, p := range st.problems {
				for _, n := range st.sizes {
					sampled++
					for _, g := range st.graphs {
						want[key{p, g, n}] += st.replicas
					}
				}
			}
		}
		for i, r := range a {
			if r.ID != int64(i) {
				t.Errorf("%s: request %d carries id %d", w.name, i, r.ID)
			}
			// The seed jitters a size upward by at most 1/32.
			found := false
			for k := range want {
				if k.problem == r.Problem && k.graph == r.Graph && r.N >= k.size && r.N <= k.size+k.size/32 {
					got[k]++
					found = true
				}
			}
			if !found || r.N > 4096 {
				t.Errorf("%s: request %d = %+v is in no stratum", w.name, i, r)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: strata counts %v, want %v", w.name, got, want)
		}
		if n := len(w.requests(7, true)); n != sampled {
			t.Errorf("%s: sampled list holds %d requests, want %d", w.name, n, sampled)
		}
	}
}
