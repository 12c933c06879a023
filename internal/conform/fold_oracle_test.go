package conform

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"sleepmst/internal/chaos"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/trace"
)

// requireSameVerdict checks one trace with CheckTrace and with the
// map-based reference fold and requires byte-identical verdict JSON.
func requireSameVerdict(t testing.TB, what string, meta trace.Meta, events []trace.Event, info RunInfo) {
	t.Helper()
	got, err := json.Marshal(CheckTrace(meta, events, info))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refCheckTrace(meta, events, info))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s (relaxed=%v): verdict\n  %s\nreference\n  %s", what, info.Relaxed, got, want)
	}
}

// oracleRun records one MST run on a random 24-node graph: algo picks
// the algorithm, faults the chaos policy (nil = clean), capacity the
// trace cap.
func oracleRun(t testing.TB, algo string, seed int64, faults *chaos.Options, capacity int) (trace.Meta, []trace.Event) {
	t.Helper()
	g := graph.RandomConnected(24, 60, graph.GenConfig{Seed: seed})
	rec := trace.NewRecorder(capacity)
	opts := core.Options{Seed: seed, Trace: rec}
	if faults != nil {
		opts.Interceptor = chaos.New(*faults)
	}
	run := map[string]func(*graph.Graph, core.Options) (*core.Outcome, error){
		AlgoRandomized:    core.RunRandomized,
		AlgoDeterministic: core.RunDeterministic,
		AlgoLogStar:       core.RunLogStar,
	}[algo]
	run(g, opts) // a faulted run may fail; its trace is what counts
	return rec.Meta(), rec.Events()
}

// TestFoldMatchesReferenceOnRuns compares the two folds on recorded
// runs of all three algorithms: clean, under each fault family
// (crashes included), and at trace caps that evict events, each
// checked strict and relaxed.
func TestFoldMatchesReferenceOnRuns(t *testing.T) {
	faults := []*chaos.Options{
		nil,
		{Seed: 3, DelayRate: 0.1},
		{Seed: 4, DropRate: 0.05},
		{Seed: 5, DupRate: 0.1},
		{Seed: 6, CrashFrac: 0.1},
		{Seed: 7, OversleepRate: 0.05},
		{Seed: 8, FlipRate: 0.05},
	}
	for _, algo := range []string{AlgoRandomized, AlgoDeterministic, AlgoLogStar} {
		for fi, fo := range faults {
			for _, capacity := range []int{0, 512} {
				meta, events := oracleRun(t, algo, int64(1+fi), fo, capacity)
				for _, relaxed := range []bool{false, true} {
					info := RunInfo{Algorithm: algo, Seed: int64(fi), Relaxed: relaxed}
					requireSameVerdict(t, algo, meta, events, info)
				}
			}
		}
	}
}

// mutations perturb a well-formed trace while keeping its rounds in
// order, each aimed at one part of the fold.
var mutations = map[string]func(rng *rand.Rand, evs []trace.Event) []trace.Event{
	// A delivery moved to the front of its round, ahead of the round's
	// awake and send events.
	"deliver-first": func(rng *rand.Rand, evs []trace.Event) []trace.Event {
		i := pick(rng, evs, trace.KindDeliver)
		if i < 0 {
			return evs
		}
		j := i
		for j > 0 && evs[j-1].Round == evs[i].Round {
			j--
		}
		ev := evs[i]
		copy(evs[j+1:i+1], evs[j:i])
		evs[j] = ev
		return evs
	},
	"drop-awake":  drop(trace.KindAwake),
	"drop-send":   drop(trace.KindSend),
	"drop-phase":  drop(trace.KindPhase),
	"drop-merge":  drop(trace.KindMerge),
	"dup-deliver": dup(trace.KindDeliver),
	"dup-send":    dup(trace.KindSend),
	"dup-merge":   dup(trace.KindMerge),
	// A delivery moved to the start of a later round.
	"late-deliver": func(rng *rand.Rand, evs []trace.Event) []trace.Event {
		i := pick(rng, evs, trace.KindDeliver)
		if i < 0 {
			return evs
		}
		ev := evs[i]
		evs = slices.Delete(evs, i, i+1)
		j := i
		for j < len(evs) && evs[j].Round <= ev.Round {
			j++
		}
		if j < len(evs) {
			ev.Round = evs[j].Round
		}
		return slices.Insert(evs, j, ev)
	},
	"retarget": func(rng *rand.Rand, evs []trace.Event) []trace.Event {
		if i := pick(rng, evs, trace.KindDeliver); i >= 0 {
			evs[i].Peer = (evs[i].Peer + 1) % 24
		}
		return evs
	},
	"crash": func(rng *rand.Rand, evs []trace.Event) []trace.Event {
		i := rng.Intn(len(evs))
		return slices.Insert(evs, i, trace.Event{Kind: trace.KindCrash, Round: evs[i].Round, Node: int32(rng.Intn(24))})
	},
	// A second entry of a node into the same phase, as another
	// fragment, ahead of the real one.
	"reenter": func(rng *rand.Rand, evs []trace.Event) []trace.Event {
		if i := pick(rng, evs, trace.KindPhase); i >= 0 {
			ev := evs[i]
			ev.Frag = int64(100 + rng.Intn(24))
			return slices.Insert(evs, i, ev)
		}
		return evs
	},
	"refrag": func(rng *rand.Rand, evs []trace.Event) []trace.Event {
		if i := pick(rng, evs, trace.KindPhase); i >= 0 {
			evs[i].Frag = int64(rng.Intn(24))
		}
		if i := pick(rng, evs, trace.KindMerge); i >= 0 {
			evs[i].Prev, evs[i].Frag = int64(rng.Intn(24)), int64(rng.Intn(24))
		}
		return evs
	},
}

// pick returns the index of a random event of kind k, or -1.
func pick(rng *rand.Rand, evs []trace.Event, k trace.Kind) int {
	var at []int
	for i := range evs {
		if evs[i].Kind == k {
			at = append(at, i)
		}
	}
	if len(at) == 0 {
		return -1
	}
	return at[rng.Intn(len(at))]
}

func drop(k trace.Kind) func(*rand.Rand, []trace.Event) []trace.Event {
	return func(rng *rand.Rand, evs []trace.Event) []trace.Event {
		if i := pick(rng, evs, k); i >= 0 {
			return slices.Delete(evs, i, i+1)
		}
		return evs
	}
}

func dup(k trace.Kind) func(*rand.Rand, []trace.Event) []trace.Event {
	return func(rng *rand.Rand, evs []trace.Event) []trace.Event {
		if i := pick(rng, evs, k); i >= 0 {
			return slices.Insert(evs, i, evs[i])
		}
		return evs
	}
}

// TestFoldMatchesReferenceOnMutations applies one to three mutations
// to clean and delayed runs and compares the two folds, strict and
// relaxed.
func TestFoldMatchesReferenceOnMutations(t *testing.T) {
	names := make([]string, 0, len(mutations))
	for name := range mutations {
		names = append(names, name)
	}
	slices.Sort(names)
	rng := rand.New(rand.NewSource(9))
	for _, fo := range []*chaos.Options{nil, {Seed: 2, DelayRate: 0.1}} {
		meta, clean := oracleRun(t, AlgoRandomized, 1, fo, 0)
		for trial := 0; trial < 150; trial++ {
			evs := slices.Clone(clean)
			applied := ""
			for k := 0; k <= rng.Intn(3); k++ {
				name := names[rng.Intn(len(names))]
				evs = mutations[name](rng, evs)
				applied += name + " "
			}
			m := meta
			m.Events = int64(len(evs))
			for _, relaxed := range []bool{false, true} {
				requireSameVerdict(t, applied, m, evs, RunInfo{Algorithm: AlgoRandomized, Relaxed: relaxed})
			}
		}
	}
}

// programTrace builds a trace from bytes, for the fuzzer: data[0]
// picks the node count (1..6), data[1] whether the check is relaxed
// (bit 0) and whether the meta reports dropped events (bit 1); then
// every four bytes (op, a, b, c) make one event. op's low nibble mod
// 10 is the kind, bits 4-5 advance the round by 0..3, bit 6 steps it
// back by one (breaking the round order), bit 7 zeroes the phase.
func programTrace(data []byte) (trace.Meta, []trace.Event, RunInfo) {
	n, flags := 3, byte(0)
	if len(data) >= 2 {
		n, flags = 1+int(data[0]%6), data[1]
		data = data[2:]
	}
	var events []trace.Event
	round := int64(1)
	for ; len(data) >= 4; data = data[4:] {
		op, a, b, c := data[0], data[1], data[2], data[3]
		round += int64(op >> 4 & 3)
		if op&0x40 != 0 && round > 0 {
			round--
		}
		phase := int32(1 + c%4)
		if op&0x80 != 0 {
			phase = 0
		}
		events = append(events, trace.Event{
			Kind:  trace.Kind((op & 0x0f) % 10),
			Round: round,
			Node:  int32(int(a) % n),
			Peer:  int32(int(b) % n),
			Port:  int32(c % 4),
			Phase: phase,
			Frag:  int64(b % 5),
			Prev:  int64(c % 5),
			Aux:   int64(c % 8),
			Step:  trace.Step(1 + b%9),
		})
	}
	meta := trace.Meta{N: n, Rounds: round, Events: int64(len(events))}
	if flags&2 != 0 {
		meta.Dropped = 1
	}
	return meta, events, RunInfo{Algorithm: AlgoRandomized, Relaxed: flags&1 != 0}
}

// FuzzFoldOracle compares CheckTrace with the reference fold on
// arbitrary small traces.
func FuzzFoldOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 8; i++ {
		data := make([]byte, 2+4*(10+rng.Intn(200)))
		rng.Read(data)
		for j := 2; j < len(data) && i%2 == 0; j += 4 {
			data[j] &^= 0xc0 // in round order, valid phases
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, events, info := programTrace(data[:min(len(data), 2+4*2048)])
		requireSameVerdict(t, "program", meta, events, info)
	})
}
