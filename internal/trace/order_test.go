package trace

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// Test hooks for the external trace_test package.
var (
	ReferenceEvents = referenceEvents
	CheckStreams    = checkStreams
)

// referenceEvents is the canonical order by definition: every live
// event tagged with its stream (-1 for the scheduler, else the node)
// and per-stream sequence, sorted on (Round, Node, Kind, stream, seq).
// Events must reproduce it exactly.
func referenceEvents(r *Recorder) []Event {
	type indexed struct {
		ev     Event
		stream int32
		seq    int64
	}
	var all []indexed
	collect := func(evs []Event, id int32) {
		for i, ev := range evs {
			all = append(all, indexed{ev: ev, stream: id, seq: int64(i)})
		}
	}
	collect(schedLive(r), -1)
	for v := range r.nodes {
		collect(nodeLive(r, v), int32(v))
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.ev.Round != b.ev.Round {
			return a.ev.Round < b.ev.Round
		}
		if a.ev.Node != b.ev.Node {
			return a.ev.Node < b.ev.Node
		}
		if a.ev.Kind != b.ev.Kind {
			return a.ev.Kind < b.ev.Kind
		}
		if a.stream != b.stream {
			return a.stream < b.stream
		}
		return a.seq < b.seq
	})
	out := make([]Event, len(all))
	for i := range all {
		out[i] = all[i].ev
	}
	return out
}

// schedLive returns the scheduler stream's live events, oldest first.
func schedLive(r *Recorder) (out []Event) {
	r.sched.segments(func(seg []schedEvent) {
		for _, e := range seg {
			out = append(out, e.event())
		}
	})
	return out
}

// nodeLive returns node v's live events, oldest first.
func nodeLive(r *Recorder, v int) (out []Event) {
	r.nodes[v].segments(func(seg []Event) { out = append(out, seg...) })
	return out
}

// schedulerKind reports whether k is recorded on the scheduler stream.
func schedulerKind(k Kind) bool {
	return k == KindAwake || k == KindSend || k == KindDeliver || k == KindLost
}

// checkStreams verifies the stream layout Events relies on: the
// scheduler stream holds only scheduler kinds, and node v's stream
// holds only node kinds of node v.
func checkStreams(r *Recorder) error {
	for _, ev := range schedLive(r) {
		if !schedulerKind(ev.Kind) {
			return fmt.Errorf("scheduler stream holds node-side event %v", ev)
		}
	}
	for v := range r.nodes {
		for _, ev := range nodeLive(r, v) {
			if schedulerKind(ev.Kind) || int(ev.Node) != v {
				return fmt.Errorf("node %d stream holds %v", v, ev)
			}
		}
	}
	return nil
}

// recordProgram drives a fresh recorder from a byte program, so tests
// and the fuzzer can reach every recording path. data[0] picks the
// node count (1..8), data[1] the capacity (0 = default; small values
// overflow the rings after 64 events a stream). Then every four bytes
// (op, node, b, c) make one recording call: op's low nibble mod 10
// picks the kind, bits 4-5 advance the current round by 0..3, bit 6
// stamps the event up to 4 rounds in the past (as a delayed lost copy
// is), and bit 7 swaps in extreme rounds and values. Every coordinate
// stays within what ReadJSONL accepts (fragments may be negative).
func recordProgram(data []byte) *Recorder {
	n, capacity, ops := programShape(data)
	r := NewRecorder(capacity)
	r.Begin(n)
	playProgram(ops, n, r)
	return r
}

// programShape splits a recordProgram input into its node count,
// capacity and recording calls.
func programShape(data []byte) (n, capacity int, ops []byte) {
	if len(data) < 2 {
		return 3, 0, data
	}
	return 1 + int(data[0]%8), 4 * int(data[1]), data[2:]
}

// sink is the recording surface of Recorder, so a program can drive
// the reference recorder too.
type sink interface {
	Phase(node int, round int64, phase int, frag int64)
	StepDone(node int, round int64, phase int, step Step, awake int64)
	Merge(node int, round int64, prev, frag int64)
	Sleep(node int, lastAwake, wake int64)
	Awake(round int64, node int)
	Send(round int64, from, port, to int)
	Deliver(round int64, to, port, from int)
	Lost(round int64, from, port, to int)
	Crash(node int, round int64)
	Nbrs(node int, round int64, phase int, deg int)
}

// playProgram makes the recording calls of ops on n nodes.
func playProgram(data []byte, n int, r sink) {
	wide := [...]int64{0, 9, 10, 99, 100, math.MaxInt32, 1 << 32, math.MaxInt64 - 1, math.MaxInt64}
	signed := [...]int64{math.MinInt64, math.MinInt64 + 1, -1, math.MinInt32, math.MaxInt32, math.MaxInt64}
	round := int64(1)
	for ; len(data) >= 4; data = data[4:] {
		op, v, b, c := data[0], int(data[1])%n, data[2], data[3]
		round += int64(op >> 4 & 3)
		at, val, small, frag := round, int64(c), int(c), int64(int8(c))
		if op&0x40 != 0 {
			at -= min(at, int64(b%5))
		}
		if op&0x80 != 0 {
			at = math.MaxInt64 - int64(b)
			val = wide[int(c)%len(wide)]
			small = int(min(val, math.MaxInt32))
			frag = signed[int(c)%len(signed)]
		}
		switch (op & 0x0f) % 10 {
		case 0:
			r.Phase(v, at, small, frag)
		case 1:
			r.StepDone(v, at, small, Step(int(b)%len(stepLineKeys)), val)
		case 2:
			r.Merge(v, at, frag, val)
		case 3:
			r.Sleep(v, val, at)
		case 4:
			r.Awake(at, v)
		case 5:
			r.Send(at, v, small, int(b)%n)
		case 6:
			r.Deliver(at, v, small, int(b)%n)
		case 7:
			r.Lost(at, v, small, int(b)%n)
		case 8:
			r.Crash(v, at)
		case 9:
			r.Nbrs(v, at, small, int(val))
		}
	}
}

// randomProgram returns a recordProgram input of ops calls. Extreme
// values (op bit 7) appear only when extreme is set, so the packed-key
// path is the one exercised otherwise.
func randomProgram(rng *rand.Rand, ops, capacity int, extreme bool) []byte {
	data := make([]byte, 2+4*ops)
	rng.Read(data)
	data[1] = byte(capacity / 4)
	for i := 2; i < len(data) && !extreme; i += 4 {
		data[i] &^= 0x80
	}
	return data
}

func requireReferenceOrder(t *testing.T, r *Recorder) {
	t.Helper()
	if err := checkStreams(r); err != nil {
		t.Fatal(err)
	}
	got, want := r.Events(), referenceEvents(r)
	if len(got) != len(want) {
		t.Fatalf("Events returned %d events, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d of %d: Events gives %v, reference order gives %v", i, len(want), got[i], want[i])
		}
	}
}

// TestEventsMatchReference checks the packed-key order against the
// five-field reference on random recorders that use all ten kinds,
// tie often on (round, node, kind), stamp lost copies in the past, and
// (at small capacities) overflow their rings.
func TestEventsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	overflowed := 0
	for trial := 0; trial < 300; trial++ {
		capacity := 0
		if trial%2 == 1 {
			capacity = 4 * (1 + rng.Intn(64))
		}
		r := recordProgram(randomProgram(rng, 1+rng.Intn(1200), capacity, false))
		if r.Dropped() > 0 {
			overflowed++
		}
		requireReferenceOrder(t, r)
	}
	if overflowed == 0 {
		t.Error("no trial overflowed a ring")
	}
}

// TestEventsFallbackMatchesReference covers the stable-sort fallback:
// rounds spanning almost all of int64 leave no room for the other key
// fields.
func TestEventsFallbackMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		r := recordProgram(randomProgram(rng, 1+rng.Intn(600), 4*rng.Intn(64), true))
		requireReferenceOrder(t, r)
	}
	r := NewRecorder(0)
	r.Begin(2)
	r.Awake(math.MaxInt64, 1)
	r.Phase(0, math.MaxInt64, 1, 0)
	r.Awake(0, 1)
	r.Awake(0, 0)
	r.Phase(1, 0, 1, 0)
	requireReferenceOrder(t, r)
}

// TestStreamKindsDisjoint pins the layout the canonical order relies
// on: recording one event of each kind through its method puts the
// four scheduler kinds on the scheduler stream and the six node kinds
// on the node's own stream, and the two sets cover every kind once.
func TestStreamKindsDisjoint(t *testing.T) {
	r := NewRecorder(0)
	r.Begin(3)
	const v = 2
	r.Phase(v, 1, 1, 0)
	r.StepDone(v, 1, 1, StepFindMOE, 1)
	r.Merge(v, 1, 0, 1)
	r.Sleep(v, 0, 1)
	r.Awake(1, v)
	r.Send(1, v, 0, 0)
	r.Deliver(1, v, 0, 0)
	r.Lost(1, v, 0, 0)
	r.Crash(v, 1)
	r.Nbrs(v, 1, 1, 1)
	if err := checkStreams(r); err != nil {
		t.Fatal(err)
	}
	kinds := func(evs []Event) (ks []Kind) {
		for _, ev := range evs {
			ks = append(ks, ev.Kind)
		}
		slices.Sort(ks)
		return ks
	}
	sched, node := kinds(schedLive(r)), kinds(nodeLive(r, v))
	if want := []Kind{KindAwake, KindSend, KindDeliver, KindLost}; !slices.Equal(sched, want) {
		t.Errorf("scheduler stream kinds %v, want %v", sched, want)
	}
	if want := []Kind{KindPhase, KindStep, KindMerge, KindSleep, KindCrash, KindNbrs}; !slices.Equal(node, want) {
		t.Errorf("node stream kinds %v, want %v", node, want)
	}
	for k := KindPhase; k <= KindNbrs; k++ {
		if slices.Contains(sched, k) == slices.Contains(node, k) {
			t.Errorf("kind %v is not on exactly one side (scheduler %v, node %v)", k, sched, node)
		}
	}
}
