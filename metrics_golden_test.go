package sleepmst

import (
	"fmt"
	"strings"
	"testing"

	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/metrics"
	"sleepmst/internal/problem"
)

// TestMetricsGolden pins the run metrics registry of every problem —
// awake per step and phase, MOE and merge counters, per-kind message
// tallies, node-averaged awake — byte for byte on one fixed-seed
// graph. Regenerate with the other fixtures:
//
//	UPDATE_GOLDEN=1 go test -run 'Golden' .
func TestMetricsGolden(t *testing.T) {
	g := graph.RandomConnected(16, 32, graph.GenConfig{Seed: 5})
	var b strings.Builder
	for _, name := range problem.Names() {
		p, err := problem.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.New()
		if _, err := p.Run(g, core.Options{Seed: 1, Metrics: reg}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "# %s\n%s", name, reg)
	}
	compareGolden(t, "metrics_golden.txt", []byte(b.String()))
}
