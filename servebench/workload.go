package main

import (
	"fmt"
	"sort"
	"time"

	"sleepmst/internal/service"
)

// workload is one closed-loop traffic mix. Its request list (one
// "pass") is stratified: every (problem, graph, size) of each stratum
// set appears a fixed number of times, spread evenly over the pass, and
// the seed only jitters each size upward by up to 1/32 and picks every
// run seed and each stratum's phase in the dispatch order. So two seeds
// cost about the same per pass, while no seed replays another's inputs.
type workload struct {
	name    string
	clients int
	// strata is the request mix.
	strata    []strata
	transport string
	wantTrace bool
	// readDeadline bounds the wait for one response; it sits above the
	// workload's slowest answered request and above the server time of a
	// request whose response is never sent, so an expiry means the
	// request went unanswered and the service is idle again.
	readDeadline time.Duration
}

// strata is a set of (problem, graph, size) strata of equal weight,
// the shape of cmd/mstload's default traffic: problems and graph kinds
// drawn equally often, and sizes uniform over the strata.
type strata struct {
	problems []string
	graphs   []string
	// sizes are the node-count strata, ascending.
	sizes []int
	// replicas is the number of requests per stratum per pass.
	replicas int
}

var allGraphs = []string{"random", "ring", "grid"}

// workloads is the benchmark's traffic catalog, in BENCHMARK.json
// order.
var workloads = []workload{
	{
		name:    "serve-verify",
		clients: 2,
		strata: []strata{
			// Every trace of these sizes stays under MaxFrameBytes by at
			// least a quarter, for every seed. The strata start at 40,
			// not at mstload's 16: at n=16 about one mst/randomized run
			// in 2000 exceeds its awake budget and is answered
			// violation, which would fail the run.
			{problems: []string{"mst/randomized", "mis"}, graphs: allGraphs,
				sizes: []int{40, 58, 76, 94, 112}, replicas: 13},
			// The overflow probe: every mst/randomized trace at n >= 352
			// renders over MaxFrameBytes (by at least 6%), so these go
			// unanswered for every seed (ROADMAP item 1). Overflow
			// starts between n=176 and n=300, with the graph and the
			// seed; that band is left out so the failure count does not
			// depend on the seed. One request per graph kind keeps the
			// time spent waiting on them small.
			{problems: []string{"mst/randomized"}, graphs: allGraphs,
				sizes: []int{352}, replicas: 1},
		},
		wantTrace:    true,
		readDeadline: 1500 * time.Millisecond,
	},
	{
		name:    "serve-large",
		clients: 1,
		strata: []strata{
			{problems: []string{"mst/randomized"}, graphs: allGraphs,
				sizes: []int{1024, 2560, service.DefaultMaxN}, replicas: 1},
		},
		readDeadline: 20 * time.Second,
	},
	{
		name:    "serve-wire",
		clients: 2,
		strata: []strata{
			{problems: []string{"mst/randomized", "mis"}, graphs: []string{"random"},
				sizes: []int{32, 60, 88, 116, 144, 172, 200, 228, 256}, replicas: 16},
		},
		transport:    "inproc",
		readDeadline: 2 * time.Second,
	},
}

// lookupWorkload resolves a workload by name.
func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// requests derives the workload's request list from seed; with sample
// set it keeps one request of every (problem, size), its graph kind
// picked by the seed: the list a traced run replays. Request IDs are
// the list indices; a later pass reuses them, so a deterministic
// service answers every pass with byte-identical responses.
func (w workload) requests(seed int64, sample bool) []service.Request {
	var reqs []service.Request
	var pos []float64
	i, group := 0, 0
	for _, st := range w.strata {
		for _, prob := range st.problems {
			for _, size := range st.sizes {
				// The group's k-th request is on graph kind k mod
				// len(graphs), so graph kinds interleave.
				count := st.replicas * len(st.graphs)
				phase := float64(mix(seed, -2*group-2)>>11) / (1 << 53)
				picked := int(mix(seed, -2*group-3) % uint64(len(st.graphs)))
				for k := 0; k < count; k, i = k+1, i+1 {
					if sample && k != picked {
						continue
					}
					h := mix(seed, i)
					n := size + int(h%uint64(size/32+1))
					if n > service.DefaultMaxN {
						n = service.DefaultMaxN
					}
					reqs = append(reqs, service.Request{
						Problem:   prob,
						Graph:     st.graphs[k%len(st.graphs)],
						N:         n,
						Seed:      int64(h >> 33),
						Transport: w.transport,
						WantTrace: w.wantTrace,
					})
					pos = append(pos, (float64(k)+phase)/float64(count))
				}
				group++
			}
		}
	}
	// Spread every (problem, size) group evenly over the pass, from a
	// seeded phase per group. Heavy requests then never bunch up, so two
	// clients rarely run two of the largest at once; how often they did
	// would move latency and heap from seed to seed.
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return pos[order[a]] < pos[order[b]] })
	out := make([]service.Request, len(reqs))
	for k, i := range order {
		out[k] = reqs[i]
		out[k].ID = int64(k)
	}
	return out
}

// warmups are the untimed requests sent before the load phase: one
// small request per (problem, graph) of the workload, so every code
// path the load takes has run once.
func (w workload) warmups() []service.Request {
	var reqs []service.Request
	seen := map[[2]string]bool{}
	for _, st := range w.strata {
		for _, prob := range st.problems {
			for _, g := range st.graphs {
				if seen[[2]string{prob, g}] {
					continue
				}
				seen[[2]string{prob, g}] = true
				reqs = append(reqs, service.Request{
					ID: int64(len(reqs)), Problem: prob, Graph: g, N: 64, Seed: 1,
					Transport: w.transport, WantTrace: w.wantTrace,
				})
			}
		}
	}
	return reqs
}

// mix hashes (seed, i) with the SplitMix64 finalizer.
func mix(seed int64, i int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
