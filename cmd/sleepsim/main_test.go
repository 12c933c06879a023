package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sleepmst/internal/service"
)

// TestBuildGraphKinds: every -graph kind builds through
// service.BuildGraph with sleepsim's defaults, and random keeps
// sleepsim's denser m = 3n instead of the service's 2n.
func TestBuildGraphKinds(t *testing.T) {
	for _, kind := range []string{"random", "ring", "path", "grid", "complete", "sensor"} {
		t.Run(kind, func(t *testing.T) {
			g, err := service.BuildGraph(kind, 16, randomEdges(16, 0), 0, 0.3, 5)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if g.N() != 16 {
				t.Errorf("n = %d, want 16", g.N())
			}
			if kind == "random" && g.M() != 48 {
				t.Errorf("random m = %d, want the 3n default 48", g.M())
			}
		})
	}
	if got := randomEdges(16, 20); got != 20 {
		t.Errorf("randomEdges(16, 20) = %d, want an explicit m kept", got)
	}
}

func TestRunEndToEnd(t *testing.T) {
	// The whole CLI path minus flag parsing.
	if err := run(runOpts{graphKind: "ring", n: 16, seed: 3, problem: "mst/randomized", bitCap: true, width: 40}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run(runOpts{graphKind: "path", n: 8, seed: 3, problem: "mst/deterministic", idSpace: 32,
		showTrace: true, showHist: true, width: 40}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run(runOpts{graphKind: "ring", n: 8, seed: 3, problem: "mst/unknown-algo", width: 40}); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
	// A topology the generators cannot build is an error, not a panic.
	if err := run(runOpts{graphKind: "ring", n: 2, seed: 3, problem: "mst/randomized", width: 40}); err == nil {
		t.Fatal("want error for a 2-node ring")
	}
}

func TestRunWithObservability(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.jsonl")
	if err := run(runOpts{graphKind: "ring", n: 12, seed: 5, problem: "mst/randomized",
		traceOut: out, showMetrics: true, width: 40}); err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	if !strings.HasPrefix(string(b), `{"k":"begin"`) {
		t.Errorf("trace does not start with a begin line: %.60s", b)
	}
	if !strings.Contains(string(b), `"k":"end"`) {
		t.Error("trace has no end line")
	}
}
