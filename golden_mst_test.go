package sleepmst

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sleepmst/internal/graph"
)

// The deterministic MST algorithms share the phase skeleton, the
// supergraph step and the merge tail with Randomized-MST but each runs
// its own coloring; these goldens pin both of their trace and verdict
// bytes on the same fixed-seed configuration as trace_golden.jsonl.
// Regenerate together with the other fixtures:
//
//	UPDATE_GOLDEN=1 go test -run 'Golden' .
var mstGoldens = []struct {
	algo           Algorithm
	trace, verdict string
}{
	{Deterministic, "trace_golden_deterministic.jsonl", "conform_golden_deterministic.json"},
	{LogStar, "trace_golden_logstar.jsonl", "conform_golden_logstar.json"},
}

// compareGolden compares got with testdata/name, rewriting the file
// first when UPDATE_GOLDEN is set.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted (%d vs %d bytes); run with UPDATE_GOLDEN=1 if the change is intended", name, len(got), len(want))
	}
}

// TestTraceJSONLGoldenDeterministic pins the JSONL traces of
// Deterministic-MST and the log* variant byte for byte, and checks the
// committed files round-trip through the reader and pass the catalog.
func TestTraceJSONLGoldenDeterministic(t *testing.T) {
	for _, tc := range mstGoldens {
		t.Run(tc.algo.String(), func(t *testing.T) {
			g := RandomConnected(8, 12, 5)
			compareGolden(t, tc.trace, traceJSONL(t, tc.algo, g, 1))
			f, err := os.Open(filepath.Join("testdata", tc.trace))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			meta, events, err := ReadTraceJSONL(f)
			if err != nil {
				t.Fatalf("round-trip: %v", err)
			}
			if meta.N != g.N() || int64(len(events)) != meta.Events {
				t.Fatalf("round-trip meta mismatch: n=%d events=%d/%d", meta.N, len(events), meta.Events)
			}
			v := CheckTraceConformance(meta, events, ConformRunInfo{Algorithm: tc.algo.String(), Seed: 1})
			if !v.Pass {
				t.Fatalf("committed golden trace violates the catalog:\n%s", v)
			}
		})
	}
}

// TestConformVerdictGoldenDeterministic pins the conformance verdicts
// (full catalog plus MST-weight agreement) of the same runs.
func TestConformVerdictGoldenDeterministic(t *testing.T) {
	for _, tc := range mstGoldens {
		t.Run(tc.algo.String(), func(t *testing.T) {
			g := RandomConnected(8, 12, 5)
			rec := NewTraceRecorder(0)
			rep, err := Run(tc.algo, g, Options{Seed: 1, Trace: rec})
			if err != nil {
				t.Fatal(err)
			}
			v := ConformSuite{
				Info:        ConformRunInfo{Algorithm: tc.algo.String(), Seed: 1},
				Meta:        rec.Meta(),
				Events:      rec.Events(),
				TreeWeight:  rep.MSTWeight(),
				WantWeight:  graph.TotalWeight(ReferenceMST(g)),
				CheckWeight: true,
			}.Verdict()
			var buf bytes.Buffer
			if err := v.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, tc.verdict, buf.Bytes())
		})
	}
}
