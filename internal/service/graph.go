package service

import (
	"fmt"
	"math"

	"sleepmst/internal/graph"
)

// BuildGraph constructs the named topology from the generator
// parameters every driver exposes as flags or request fields. Zero
// parameters take defaults: m = 2n for random (sparse, because every
// undirected edge of a run over a tcp backend costs two socket
// connections; cmd/sleepsim passes its denser 3n explicitly), rows =
// ceil(sqrt(n)) for grid, radius 0.2 for sensor. A topology that cannot
// be built — n < 1, a ring under 3 nodes, more grid rows than nodes, an
// unknown kind — is an error, never a panic. It is the one graph
// builder of the service, cmd/mstserve and cmd/sleepsim.
func BuildGraph(kind string, n, m, rows int, radius float64, seed int64) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("service: n=%d, want at least 1 node", n)
	}
	cfg := graph.GenConfig{Seed: seed}
	switch kind {
	case "random":
		if m <= 0 {
			m = 2 * n
		}
		return graph.RandomConnected(n, m, cfg), nil
	case "ring":
		if n < 3 {
			return nil, fmt.Errorf("service: ring requires n >= 3, got %d", n)
		}
		return graph.Cycle(n, cfg), nil
	case "path":
		return graph.Path(n, cfg), nil
	case "grid":
		if rows > n {
			return nil, fmt.Errorf("service: rows=%d exceeds n=%d", rows, n)
		}
		if rows <= 0 {
			rows = intSqrt(n)
		}
		return graph.Grid(rows, (n+rows-1)/rows, cfg), nil
	case "complete":
		return graph.Complete(n, cfg), nil
	case "sensor":
		if radius <= 0 {
			radius = 0.2
		}
		return graph.RandomGeometric(n, radius, cfg), nil
	default:
		return nil, fmt.Errorf("service: unknown graph kind %q (want %s)", kind, GraphKindList)
	}
}

// requestedEdges returns the edge count a request asks BuildGraph for,
// computed without building anything, under BuildGraph's defaults:
// min(m, n(n−1)/2) for random, n(n−1)/2 for complete, and the expected
// min(1, πr²) share of all pairs for sensor. Ring, path and grid build
// O(n) edges, which the node cap already bounds; they report 0.
func requestedEdges(kind string, n, m int, radius float64) float64 {
	pairs := float64(n) * float64(n-1) / 2
	switch kind {
	case "random":
		if m <= 0 {
			m = 2 * n
		}
		return math.Min(float64(m), pairs)
	case "complete":
		return pairs
	case "sensor":
		if radius <= 0 {
			radius = 0.2
		}
		return math.Min(1, math.Pi*radius*radius) * pairs
	}
	return 0
}

// GraphKindList is the documented topology vocabulary, for flag help
// strings and validation errors.
const GraphKindList = "random|ring|path|grid|complete|sensor"

// validGraphKind reports whether kind names a buildable topology.
func validGraphKind(kind string) bool {
	switch kind {
	case "random", "ring", "path", "grid", "complete", "sensor":
		return true
	}
	return false
}

// intSqrt returns the smallest r with r*r >= n.
func intSqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}
