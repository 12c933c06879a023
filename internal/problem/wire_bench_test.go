package problem_test

import (
	"fmt"
	"testing"

	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/problem"
	"sleepmst/internal/transport"
)

// runWire runs p on g at seed 1, over a fresh Inproc backend when
// inproc is set and without a transport otherwise, and returns the
// frames the backend carried.
func runWire(tb testing.TB, p problem.Problem, g *graph.Graph, inproc bool) int64 {
	opts := core.Options{Seed: 1}
	var tx *transport.Inproc
	if inproc {
		tx = transport.NewInproc()
		defer tx.Close()
		opts.Transport = tx
	}
	if _, err := p.Run(g, opts); err != nil {
		tb.Fatalf("%s: %v", p.Name(), err)
	}
	if tx == nil {
		return 0
	}
	return tx.TransportStats().FramesSent
}

// TestWireAllocsPerFrame guards the allocation cost of the inproc
// wire: ship, carry and drain allocate nothing per frame except the
// decoded message value, so an inproc run of mst/randomized (random
// n=128, seed 1) may cost at most 1.5 heap allocations per frame more
// than the same run without a transport.
func TestWireAllocsPerFrame(t *testing.T) {
	p, err := problem.Lookup("mst/randomized")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomConnected(128, 256, graph.GenConfig{Seed: 1})
	var frames int64
	plain := testing.AllocsPerRun(3, func() { runWire(t, p, g, false) })
	inproc := testing.AllocsPerRun(3, func() { frames = runWire(t, p, g, true) })
	if frames == 0 {
		t.Fatal("the inproc run carried no frames")
	}
	perFrame := (inproc - plain) / float64(frames)
	t.Logf("%d frames, %.0f allocs without a transport, %.0f over inproc: %.2f allocs per frame", frames, plain, inproc, perFrame)
	if perFrame > 1.5 {
		t.Errorf("the inproc wire costs %.2f allocations per frame, want <= 1.5", perFrame)
	}
}

// BenchmarkWireRun times whole runs at the service's serve-wire shape
// (random n=256, m=2n, seed 1) with and without the inproc wire; the
// difference between the pairs is the wire's cost.
//
//	go test ./internal/problem -run '^$' -bench WireRun -benchmem
func BenchmarkWireRun(b *testing.B) {
	g := graph.RandomConnected(256, 512, graph.GenConfig{Seed: 1})
	for _, name := range []string{"mst/randomized", "mis"} {
		p, err := problem.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, inproc := range []bool{false, true} {
			wire := "none"
			if inproc {
				wire = "inproc"
			}
			b.Run(fmt.Sprintf("%s/%s", name, wire), func(b *testing.B) {
				b.ReportAllocs()
				var frames int64
				for i := 0; i < b.N; i++ {
					frames = runWire(b, p, g, inproc)
				}
				if frames > 0 {
					b.ReportMetric(float64(frames), "frames/op")
				}
			})
		}
	}
}
