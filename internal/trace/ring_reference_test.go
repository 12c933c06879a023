package trace

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// refStream and refRecorder are the recorder storage before compact
// scheduler records and chunked rings: every event a 56-byte Event in
// a per-stream ring that grows by append doubling, the canonical order
// built by a comparison sort of packed keys. They stay here as the
// differential reference of Recorder.

type refStream struct {
	buf     []Event
	head    int
	n       int
	dropped int64
}

func (s *refStream) push(cap int, ev Event) {
	if len(s.buf) < cap {
		s.buf = append(s.buf, ev)
		s.n++
		return
	}
	s.buf[s.head] = ev
	s.head = (s.head + 1) % len(s.buf)
	s.dropped++
}

func (s *refStream) appendLive(dst []Event) []Event {
	end := s.head + s.n
	if end <= len(s.buf) {
		return append(dst, s.buf[s.head:end]...)
	}
	dst = append(dst, s.buf[s.head:]...)
	return append(dst, s.buf[:end-len(s.buf)]...)
}

type refRecorder struct {
	capacity, n       int
	rounds            int64
	sched             refStream
	nodes             []refStream
	schedCap, nodeCap int
}

func newRefRecorder(capacity int) *refRecorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &refRecorder{capacity: capacity}
}

func (r *refRecorder) Begin(n int) {
	r.n, r.rounds = n, 0
	r.sched, r.nodes = refStream{}, make([]refStream, n)
	r.schedCap, r.nodeCap = max(r.capacity/2, 64), max(r.capacity/2/n, 64)
}

func (r *refRecorder) Awake(round int64, node int) {
	r.rounds = max(r.rounds, round)
	r.sched.push(r.schedCap, Event{Kind: KindAwake, Round: round, Node: int32(node)})
}
func (r *refRecorder) Send(round int64, from, port, to int) {
	r.sched.push(r.schedCap, Event{Kind: KindSend, Round: round, Node: int32(from), Port: int32(port), Peer: int32(to)})
}
func (r *refRecorder) Deliver(round int64, to, port, from int) {
	r.sched.push(r.schedCap, Event{Kind: KindDeliver, Round: round, Node: int32(to), Port: int32(port), Peer: int32(from)})
}
func (r *refRecorder) Lost(round int64, from, port, to int) {
	r.sched.push(r.schedCap, Event{Kind: KindLost, Round: round, Node: int32(from), Port: int32(port), Peer: int32(to)})
}
func (r *refRecorder) Sleep(node int, lastAwake, wake int64) {
	r.nodes[node].push(r.nodeCap, Event{Kind: KindSleep, Round: wake, Node: int32(node), Aux: lastAwake})
}
func (r *refRecorder) Crash(node int, round int64) {
	r.nodes[node].push(r.nodeCap, Event{Kind: KindCrash, Round: round, Node: int32(node)})
}
func (r *refRecorder) Phase(node int, round int64, phase int, frag int64) {
	r.nodes[node].push(r.nodeCap, Event{Kind: KindPhase, Round: round, Node: int32(node), Phase: int32(phase), Frag: frag})
}
func (r *refRecorder) StepDone(node int, round int64, phase int, step Step, awake int64) {
	r.nodes[node].push(r.nodeCap, Event{Kind: KindStep, Round: round, Node: int32(node), Phase: int32(phase), Step: step, Aux: awake})
}
func (r *refRecorder) Merge(node int, round int64, prev, frag int64) {
	r.nodes[node].push(r.nodeCap, Event{Kind: KindMerge, Round: round, Node: int32(node), Frag: frag, Prev: prev})
}
func (r *refRecorder) Nbrs(node int, round int64, phase int, deg int) {
	r.nodes[node].push(r.nodeCap, Event{Kind: KindNbrs, Round: round, Node: int32(node), Phase: int32(phase), Aux: int64(deg)})
}

func (r *refRecorder) Meta() Meta {
	m := Meta{N: r.n, Rounds: r.rounds, Events: int64(r.sched.n), Dropped: r.sched.dropped}
	for i := range r.nodes {
		m.Events += int64(r.nodes[i].n)
		m.Dropped += r.nodes[i].dropped
	}
	return m
}

func (r *refRecorder) Events() []Event {
	out := r.sched.appendLive(nil)
	for i := range r.nodes {
		out = r.nodes[i].appendLive(out)
	}
	refSortCanonical(out)
	return out
}

func refSortCanonical(evs []Event) {
	if len(evs) < 2 {
		return
	}
	minR, maxR := evs[0].Round, evs[0].Round
	minV, maxV := evs[0].Node, evs[0].Node
	maxK := evs[0].Kind
	for _, ev := range evs {
		minR, maxR = min(minR, ev.Round), max(maxR, ev.Round)
		minV, maxV = min(minV, ev.Node), max(maxV, ev.Node)
		maxK = max(maxK, ev.Kind)
	}
	posBits := bits.Len(uint(len(evs) - 1))
	nodeShift := posBits + bits.Len8(uint8(maxK))
	roundShift := nodeShift + bits.Len32(uint32(maxV)-uint32(minV))
	if roundShift+bits.Len64(uint64(maxR)-uint64(minR)) > 64 {
		slices.SortStableFunc(evs, func(a, b Event) int {
			if c := cmp.Compare(a.Round, b.Round); c != 0 {
				return c
			}
			if c := cmp.Compare(a.Node, b.Node); c != 0 {
				return c
			}
			return cmp.Compare(a.Kind, b.Kind)
		})
		return
	}
	keys := make([]uint64, len(evs))
	for i, ev := range evs {
		keys[i] = (uint64(ev.Round)-uint64(minR))<<roundShift |
			uint64(uint32(ev.Node)-uint32(minV))<<nodeShift |
			uint64(ev.Kind)<<posBits | uint64(i)
	}
	slices.Sort(keys)
	sorted := make([]Event, len(evs))
	for i, k := range keys {
		sorted[i] = evs[k&(1<<posBits-1)]
	}
	copy(evs, sorted)
}

// requireSameAsReference plays ops on n nodes into a Recorder and the
// reference recorder of the same capacity and requires equal metadata
// and canonical events, twice (Events must be repeatable).
func requireSameAsReference(t *testing.T, n, capacity int, ops []byte) *Recorder {
	t.Helper()
	r, ref := NewRecorder(capacity), newRefRecorder(capacity)
	r.Begin(n)
	ref.Begin(n)
	playProgram(ops, n, r)
	playProgram(ops, n, ref)
	if got, want := r.Meta(), ref.Meta(); got != want {
		t.Fatalf("n=%d capacity=%d: Meta %+v, reference %+v", n, capacity, got, want)
	}
	want := ref.Events()
	for pass := 0; pass < 2; pass++ {
		got := r.Events()
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("n=%d capacity=%d pass %d: %d events vs reference %d, first difference at %d", n, capacity, pass, len(got), len(want), i)
		}
	}
	return r
}

// TestRecorderMatchesReferenceRing drives both recorders with random
// programs at capacities that overflow and that do not, including
// extreme coordinates (the stable-sort fallback).
func TestRecorderMatchesReferenceRing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		capacity := 0
		if trial%2 == 1 {
			capacity = 4 * rng.Intn(64)
		}
		n, _, ops := programShape(randomProgram(rng, 1+rng.Intn(1500), capacity, trial%5 == 0))
		requireSameAsReference(t, n, capacity, ops)
	}
}

// streamProgram returns count recording calls that all land on one
// stream: the scheduler stream (awake and delivery kinds) or node 0's
// stream (the node kinds), at rounds that rise every third call.
func streamProgram(count int, sched bool) []byte {
	kinds := []byte{0, 1, 2, 3, 8, 9}
	if sched {
		kinds = []byte{4, 5, 6, 7}
	}
	ops := make([]byte, 0, 4*count)
	for i := 0; i < count; i++ {
		op := kinds[i%len(kinds)]
		if i%3 == 0 {
			op |= 1 << 4
		}
		ops = append(ops, op, 0, byte(i), byte(i>>3))
	}
	return ops
}

// TestRecorderStreamBoundaries pins eviction at the edges: streams of
// 63, 64 and 65 events against the 64-event minimum, the scheduler
// stream exactly at, one under and one over its cap, and across its
// chunk boundary.
func TestRecorderStreamBoundaries(t *testing.T) {
	for _, count := range []int{63, 64, 65, 127, 128, 129, 200} {
		for _, sched := range []bool{true, false} {
			// Capacity 128 gives the scheduler 64 slots and each of the
			// two nodes 64.
			r := requireSameAsReference(t, 2, 128, streamProgram(count, sched))
			if want := int64(max(count-64, 0)); r.Dropped() != want {
				t.Errorf("%d events on one stream (scheduler %v): dropped %d, want %d", count, sched, r.Dropped(), want)
			}
		}
	}
	schedCap := 1<<schedChunkShift + 100
	for _, count := range []int{schedCap - 1, schedCap, schedCap + 1, 2*schedCap + 7, 1 << schedChunkShift, 1<<schedChunkShift + 1} {
		r := requireSameAsReference(t, 3, 2*schedCap, streamProgram(count, true))
		if want := int64(max(count-schedCap, 0)); r.Dropped() != want {
			t.Errorf("%d scheduler events at cap %d: dropped %d, want %d", count, schedCap, r.Dropped(), want)
		}
	}
}

// TestRadixSort checks radixSort against a comparison sort on keys
// whose digits are skewed: most keys share each digit, a few differ,
// so a pass may be skipped only when every key agrees.
func TestRadixSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		lo, hi := rng.Intn(20), 20+rng.Intn(44)
		keys := make([]uint64, 1+rng.Intn(3000))
		common := rng.Uint64() << lo
		for i := range keys {
			k := common
			if rng.Intn(4) == 0 {
				k ^= rng.Uint64() << lo
			}
			keys[i] = k&^(1<<lo-1) | uint64(i)&(1<<lo-1)
			if hi < 64 {
				keys[i] &= 1<<hi - 1
			}
		}
		want := slices.Clone(keys)
		slices.SortStableFunc(want, func(a, b uint64) int { return cmp.Compare(a>>lo, b>>lo) })
		radixSort(keys, lo, hi)
		if !slices.Equal(keys, want) {
			t.Fatalf("trial %d (bits %d..%d, %d keys): radixSort differs from a stable sort", trial, lo, hi, len(keys))
		}
	}
}
