package problem

import (
	"strings"
	"testing"

	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
)

// TestMSTReferenceComputedOnce pins that certifying an MST run —
// ConformCheck, then Verify on the same graph — computes the Kruskal
// reference once: Verify reuses the weight ConformCheck cached (a
// tampered cache shows through), and another graph gets its own.
func TestMSTReferenceComputedOnce(t *testing.T) {
	g := graph.RandomConnected(32, 96, graph.GenConfig{Seed: 7})
	p := registry["mst/randomized"]
	r, err := p.Run(g, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c := p.ConformCheck(g, r); c.Status != conform.StatusPass {
		t.Fatalf("ConformCheck: %+v", c)
	}
	r.refWeight++
	err = p.Verify(g, r)
	if err == nil || !strings.Contains(err.Error(), "!= reference") {
		t.Fatalf("Verify after a tampered cache = %v, want the weight mismatch", err)
	}
	twin := graph.RandomConnected(32, 96, graph.GenConfig{Seed: 7})
	if err := p.Verify(twin, r); err != nil {
		t.Errorf("Verify on another graph object: %v", err)
	}
}
