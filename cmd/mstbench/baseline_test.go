package main

import (
	"path/filepath"
	"slices"
	"testing"

	"sleepmst"
)

// TestBenchBaseline is the bench gate: it reruns the grid of the
// checked-in BENCH_baseline.json (its algorithms, sizes, seed count
// and worker count) and requires the deterministic fields,
// awake_max_mean and rounds_mean, to match the file exactly. Wall time
// and allocations vary per machine and are not compared. Under -short
// only the smallest size runs.
func TestBenchBaseline(t *testing.T) {
	base, err := loadBench(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		algo string
		n    int
	}
	want := map[key]BenchCell{}
	var algos []sleepmst.Algorithm
	var ns []int
	for _, c := range base.Cells {
		want[key{c.Algorithm, c.N}] = c
		a, err := sleepmst.ParseAlgorithm(c.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(algos, a) {
			algos = append(algos, a)
		}
		if !slices.Contains(ns, c.N) {
			ns = append(ns, c.N)
		}
	}
	slices.Sort(ns)
	if testing.Short() {
		ns = ns[:1]
	}
	h := &harness{ns: ns, seeds: base.Seeds, workers: base.Workers, algos: algos}
	got, err := h.runBench("baseline")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(algos)*len(ns) {
		t.Fatalf("reran %d cells, want %d", len(got.Cells), len(algos)*len(ns))
	}
	for _, c := range got.Cells {
		w, ok := want[key{c.Algorithm, c.N}]
		if !ok {
			t.Errorf("%s n=%d: no baseline cell", c.Algorithm, c.N)
			continue
		}
		if c.AwakeMaxMean != w.AwakeMaxMean || c.RoundsMean != w.RoundsMean {
			t.Errorf("%s n=%d: awake_max_mean %v rounds_mean %v, baseline %v and %v",
				c.Algorithm, c.N, c.AwakeMaxMean, c.RoundsMean, w.AwakeMaxMean, w.RoundsMean)
		}
	}
}
