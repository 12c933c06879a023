package trace

import (
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
)

// Kind enumerates the structured trace event types. The numeric order
// doubles as the canonical sort rank for events sharing a (round,
// node) coordinate, so it is part of the JSONL stream's determinism
// contract: do not reorder existing values.
type Kind uint8

// The event taxonomy. Scheduler-side events (KindAwake, KindSend,
// KindDeliver, KindLost) are emitted by the simulator's scheduler
// goroutine; node-side events (KindSleep, KindCrash, KindPhase,
// KindStep, KindMerge) land in per-node streams written either by the
// node's own goroutine or by the scheduler while that node is parked.
const (
	// KindPhase marks a node entering an algorithm phase.
	KindPhase Kind = iota
	// KindStep reports the awake rounds a node spent in one phase step.
	KindStep
	// KindMerge reports a node changing fragments in Merging-Fragments.
	KindMerge
	// KindSleep reports a real sleep gap: the node skipped at least one
	// round between its previous awake round and this wake round.
	KindSleep
	// KindAwake reports a node being awake (and charged) in a round.
	KindAwake
	// KindSend reports one staged message at the start of a round.
	KindSend
	// KindDeliver reports a message reaching an awake receiver.
	KindDeliver
	// KindLost reports a message that reached no one (sleeping or
	// crashed receiver, interceptor drop, or a stale delayed copy).
	KindLost
	// KindCrash reports a node being crash-stopped by an interceptor.
	KindCrash
	// KindNbrs reports a fragment root's supergraph degree after the
	// NBR-INFO broadcast (deterministic variants only): Aux is the
	// number of accepted supergraph edges, bounded by 4 per the paper's
	// sparsification.
	KindNbrs
)

// String returns the JSONL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindPhase:
		return "phase"
	case KindStep:
		return "step"
	case KindMerge:
		return "merge"
	case KindSleep:
		return "sleep"
	case KindAwake:
		return "awake"
	case KindSend:
		return "send"
	case KindDeliver:
		return "deliver"
	case KindLost:
		return "lost"
	case KindCrash:
		return "crash"
	case KindNbrs:
		return "nbrs"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Step identifies one instrumented step of an algorithm phase; the
// per-phase awake budget is attributed to these labels.
type Step uint8

// The phase-step taxonomy shared by the three LDT algorithms. Not
// every algorithm emits every step: Randomized-MST skips StepNbrInfo
// and StepColoring; the deterministic variants emit all seven.
const (
	// StepNone is the zero value (no step).
	StepNone Step = iota
	// StepFindMOE covers fragment refresh, Upcast-Min of the MOE, and
	// the Fragment-Broadcast of its identity.
	StepFindMOE
	// StepMarkMOE covers the Transmit-Adjacent block that marks MOE
	// edges (and exchanges coin flips in the randomized algorithm).
	StepMarkMOE
	// StepValidate covers MOE validity: the tails->heads upcast in the
	// randomized algorithm; the incoming-MOE count, token distribution,
	// and accept/reject notices in the deterministic ones.
	StepValidate
	// StepNbrInfo covers the supergraph NBR-INFO collection and
	// broadcast (deterministic variants only).
	StepNbrInfo
	// StepColoring covers the coloring stages: Fast-Awake-Coloring or
	// the Cole-Vishkin style log* variant (deterministic variants only).
	StepColoring
	// StepDecide covers the fragment-wide merge-decision broadcast.
	StepDecide
	// StepMerge covers the Merging-Fragments wave(s).
	StepMerge
	// StepMISSample covers one MIS sparsification phase: the candidacy
	// and rank exchange plus the join/covered announcements (MIS
	// problem only).
	StepMISSample
	// StepMISCleanup covers the MIS residual cleanup: the undecided-set
	// sync plus the rank-slotted greedy decisions (MIS problem only).
	StepMISCleanup
)

// Steps lists every real step in canonical (emission) order.
var Steps = [...]Step{StepFindMOE, StepMarkMOE, StepValidate, StepNbrInfo, StepColoring, StepDecide, StepMerge, StepMISSample, StepMISCleanup}

// String returns the JSONL name of the step.
func (s Step) String() string {
	switch s {
	case StepNone:
		return "none"
	case StepFindMOE:
		return "find-moe"
	case StepMarkMOE:
		return "mark-moe"
	case StepValidate:
		return "validate"
	case StepNbrInfo:
		return "nbr-info"
	case StepColoring:
		return "coloring"
	case StepDecide:
		return "decide"
	case StepMerge:
		return "merge"
	case StepMISSample:
		return "mis-sample"
	case StepMISCleanup:
		return "mis-cleanup"
	default:
		return fmt.Sprintf("Step(%d)", int(s))
	}
}

// ParseStep converts a JSONL step name back to its Step.
func ParseStep(s string) (Step, error) {
	for _, st := range Steps {
		if st.String() == s {
			return st, nil
		}
	}
	if s == StepNone.String() {
		return StepNone, nil
	}
	return StepNone, fmt.Errorf("trace: unknown step %q", s)
}

// Event is one structured trace record. Which fields are meaningful
// depends on Kind; unused fields are zero:
//
//	KindPhase:   Round (first round of the phase), Node, Phase, Frag
//	KindStep:    Round (round after the step), Node, Phase, Step, Aux
//	             (awake rounds the node spent in the step)
//	KindMerge:   Round (round after the merge), Node, Frag (new
//	             fragment), Prev (old fragment)
//	KindSleep:   Round (the wake round ending the gap), Node, Aux (the
//	             last awake round before the gap; 0 = never awake)
//	KindAwake:   Round, Node
//	KindSend:    Round, Node (sender), Port (sender's port), Peer
//	             (receiver)
//	KindDeliver: Round, Node (receiver), Port (receiver's port), Peer
//	             (sender)
//	KindLost:    Round, Node (sender), Port (sender's port), Peer
//	             (intended receiver)
//	KindCrash:   Round (crash-stop round), Node
//	KindNbrs:    Round (round after the NBR-INFO broadcast), Node (the
//	             fragment root), Phase, Aux (supergraph degree)
type Event struct {
	// Round is the simulated round the event belongs to.
	Round int64
	// Frag is the fragment ID (KindPhase, KindMerge).
	Frag int64
	// Prev is the pre-merge fragment ID (KindMerge).
	Prev int64
	// Aux is the kind-specific extra value: awake delta for KindStep,
	// last-awake round for KindSleep.
	Aux int64
	// Node is the acting node (sender for sends, receiver for
	// deliveries).
	Node int32
	// Port is the acting node's port (KindSend, KindDeliver, KindLost).
	Port int32
	// Peer is the other endpoint (KindSend, KindDeliver, KindLost).
	Peer int32
	// Phase is the 1-based phase number (KindPhase, KindStep).
	Phase int32
	// Kind is the event type.
	Kind Kind
	// Step is the phase-step label (KindStep).
	Step Step
}

// DefaultCapacity is the recorder's default total event capacity.
const DefaultCapacity = 1 << 18

// schedEvent is the compact form of a scheduler-side event (awake,
// send, deliver, lost): the only fields those kinds use, 24 bytes
// against Event's 56. Events expands it.
type schedEvent struct {
	round            int64
	node, port, peer int32
	kind             Kind
}

func (e schedEvent) event() Event {
	return Event{Round: e.round, Node: e.node, Port: e.port, Peer: e.peer, Kind: e.kind}
}

// Chunk sizes (as shifts) of the scheduler stream and of a node
// stream. A stream allocates a chunk the first time it writes into it,
// so storage follows the events actually recorded, and it never moves
// a chunk once written.
const (
	schedChunkShift = 12
	nodeChunkShift  = 6
)

// ring is one bounded stream of events, written by exactly one
// goroutine at a time (see Recorder). Its cap slots live in chunks of
// 1<<shift; once all cap slots hold an event, each push overwrites the
// oldest one.
type ring[T any] struct {
	chunks  [][]T
	shift   uint8
	cap     int
	next    int // slot of the next push
	n       int // live events
	dropped int64
}

// push appends an event, evicting the oldest when the ring is full.
func (s *ring[T]) push(ev T) {
	c := s.next >> s.shift
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, min(1<<s.shift, s.cap-s.next)))
	}
	s.chunks[c][s.next&(1<<s.shift-1)] = ev
	if s.next++; s.next == s.cap {
		s.next = 0
	}
	if s.n < s.cap {
		s.n++
	} else {
		s.dropped++
	}
}

// at returns the i-th live event, oldest first. The slot index is
// next-n+i, below next, so it wraps only below zero.
func (s *ring[T]) at(i int) T {
	if i += s.next - s.n; i < 0 {
		i += s.cap
	}
	return s.chunks[i>>s.shift][i&(1<<s.shift-1)]
}

// segments calls f on the live events, oldest first, one run of
// consecutive slots at a time.
func (s *ring[T]) segments(f func([]T)) {
	first := s.next - s.n
	if first < 0 {
		first += s.cap
	}
	for i, left := first, s.n; left > 0; {
		chunk := s.chunks[i>>s.shift]
		off := i & (1<<s.shift - 1)
		seg := chunk[off:min(len(chunk), off+left)]
		f(seg)
		left -= len(seg)
		if i += len(seg); i == s.cap {
			i = 0
		}
	}
}

// Recorder is a bounded, allocation-limited structured event recorder
// for one simulation run. It keeps one ring buffer per writer — the
// scheduler goroutine plus each node goroutine — so recording never
// takes a lock; the canonical event order is reconstructed at read
// time (see Events), which is deterministic because every stream's
// content is deterministic for a fixed seed.
//
// A Recorder serves one run at a time: sim.Run calls Begin, which
// resets all streams. It must not be shared by concurrent runs (give
// every sweep job its own Recorder).
type Recorder struct {
	capacity int
	n        int
	rounds   int64
	sched    ring[schedEvent] // scheduler-side events
	nodes    []ring[Event]    // per-node events
}

// NewRecorder returns a Recorder whose event budget is capacity (0
// means DefaultCapacity). Half the budget goes to the scheduler stream
// (awake/send/deliver/lost events dominate), the other half is split
// evenly across node streams; when a stream overflows its share, its
// oldest events are discarded and counted in Dropped. Every stream
// keeps at least 64 events, so with many nodes the recorder holds more
// than capacity: up to max(capacity/2, 64) + n·max(capacity/2/n, 64)
// events on n nodes, e.g. 393,216 at n=4096 with DefaultCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{capacity: capacity}
}

// Begin resets the recorder for a run on n nodes. It is called by
// sim.Run; only the rare caller driving the simulator directly calls
// it by hand.
func (r *Recorder) Begin(n int) {
	r.n = n
	r.rounds = 0
	r.sched = ring[schedEvent]{cap: max(r.capacity/2, 64), shift: schedChunkShift}
	r.nodes = make([]ring[Event], n)
	nodeCap := max(r.capacity/2/n, 64)
	for i := range r.nodes {
		r.nodes[i] = ring[Event]{cap: nodeCap, shift: nodeChunkShift}
	}
}

// N returns the node count of the recorded run (0 before Begin).
func (r *Recorder) N() int { return r.n }

// Rounds returns the largest round observed in an awake event.
func (r *Recorder) Rounds() int64 { return r.rounds }

// Dropped returns the number of events evicted by ring overflow.
func (r *Recorder) Dropped() int64 {
	d := r.sched.dropped
	for i := range r.nodes {
		d += r.nodes[i].dropped
	}
	return d
}

// Len returns the number of live (non-evicted) events.
func (r *Recorder) Len() int {
	n := r.sched.n
	for i := range r.nodes {
		n += r.nodes[i].n
	}
	return n
}

// Awake records node being awake (and charged) in round. Scheduler
// side.
func (r *Recorder) Awake(round int64, node int) {
	if round > r.rounds {
		r.rounds = round
	}
	r.sched.push(schedEvent{kind: KindAwake, round: round, node: int32(node)})
}

// Send records one staged message: from sends on its port towards to.
// Scheduler side.
func (r *Recorder) Send(round int64, from, port, to int) {
	r.sched.push(schedEvent{kind: KindSend, round: round, node: int32(from), port: int32(port), peer: int32(to)})
}

// Deliver records a message reaching awake receiver to on its port
// (the reverse port of the send), sent by from. Scheduler side.
func (r *Recorder) Deliver(round int64, to, port, from int) {
	r.sched.push(schedEvent{kind: KindDeliver, round: round, node: int32(to), port: int32(port), peer: int32(from)})
}

// Lost records a message copy that reached no one. Scheduler side.
func (r *Recorder) Lost(round int64, from, port, to int) {
	r.sched.push(schedEvent{kind: KindLost, round: round, node: int32(from), port: int32(port), peer: int32(to)})
}

// Sleep records a real sleep gap for node: it was last awake in
// lastAwake (0 = never) and wakes next in wake. Called by the
// scheduler while the node is parked, so it shares the node's stream
// without racing the node goroutine.
func (r *Recorder) Sleep(node int, lastAwake, wake int64) {
	r.nodes[node].push(Event{Kind: KindSleep, Round: wake, Node: int32(node), Aux: lastAwake})
}

// Crash records node being crash-stopped from round onward. Called by
// the scheduler while the node is parked.
func (r *Recorder) Crash(node int, round int64) {
	r.nodes[node].push(Event{Kind: KindCrash, Round: round, Node: int32(node)})
}

// Phase records node entering 1-based phase as a member of fragment
// frag, with round its first wake round of the phase. Node side.
func (r *Recorder) Phase(node int, round int64, phase int, frag int64) {
	r.nodes[node].push(Event{Kind: KindPhase, Round: round, Node: int32(node), Phase: int32(phase), Frag: frag})
}

// StepDone records node finishing a phase step having spent awake
// rounds on it; round is the node's next wake round. Node side.
func (r *Recorder) StepDone(node int, round int64, phase int, step Step, awake int64) {
	r.nodes[node].push(Event{Kind: KindStep, Round: round, Node: int32(node), Phase: int32(phase), Step: step, Aux: awake})
}

// Merge records node moving from fragment prev to fragment frag;
// round is the node's next wake round. Node side.
func (r *Recorder) Merge(node int, round int64, prev, frag int64) {
	r.nodes[node].push(Event{Kind: KindMerge, Round: round, Node: int32(node), Frag: frag, Prev: prev})
}

// Nbrs records a fragment root's supergraph degree deg (its NBR-INFO
// entry count) in the given phase; round is the node's next wake
// round. Node side.
func (r *Recorder) Nbrs(node int, round int64, phase int, deg int) {
	r.nodes[node].push(Event{Kind: KindNbrs, Round: round, Node: int32(node), Phase: int32(phase), Aux: int64(deg)})
}

// Events returns the live events in canonical order: ascending
// (Round, Node, Kind, stream, per-stream sequence), where the
// scheduler stream ranks before the node streams and those rank by
// node. The order is total and deterministic for a fixed-seed run,
// which is what makes the JSONL stream byte-identical across repeats
// and worker counts. Each call builds a fresh slice.
//
// The stream coordinates never need comparing. Scheduler kinds
// (awake, send, deliver, lost) and node kinds (the rest) are
// disjoint, and node v's stream holds only node v's events, so events
// that tie on (Round, Node, Kind) always come from one stream, where
// the sequence decides. Events therefore packs (Round, Node, Kind,
// sequence) into one uint64 key per event — round and node offset by
// their minimum, each field as wide as its observed range needs — and
// the key alone locates the event: the kind names its stream side, the
// node its node stream, the sequence its slot. It radix-sorts the keys
// on the fields above the sequence, keeping stream order among ties,
// and reads the events out in key order. When the fields do not fit
// in 64 bits it falls back to a stable sort on (Round, Node, Kind).
func (r *Recorder) Events() []Event {
	var b keyBounds
	longest := r.sched.n
	r.sched.segments(func(seg []schedEvent) {
		for _, e := range seg {
			b.add(e.round, e.node, e.kind)
		}
	})
	for i := range r.nodes {
		longest = max(longest, r.nodes[i].n)
		r.nodes[i].segments(func(seg []Event) {
			for _, e := range seg {
				b.add(e.Round, e.Node, e.Kind)
			}
		})
	}
	out := make([]Event, 0, r.Len())
	k, ok := b.layout(longest)
	if !ok {
		r.sched.segments(func(seg []schedEvent) {
			for _, e := range seg {
				out = append(out, e.event())
			}
		})
		for i := range r.nodes {
			r.nodes[i].segments(func(seg []Event) { out = append(out, seg...) })
		}
		slices.SortStableFunc(out, func(a, b Event) int {
			if c := cmp.Compare(a.Round, b.Round); c != 0 {
				return c
			}
			if c := cmp.Compare(a.Node, b.Node); c != 0 {
				return c
			}
			return cmp.Compare(a.Kind, b.Kind)
		})
		return out
	}
	keys := make([]uint64, 0, cap(out))
	seq := uint64(0)
	r.sched.segments(func(seg []schedEvent) {
		for _, e := range seg {
			keys = append(keys, k.key(e.round, e.node, e.kind)|seq)
			seq++
		}
	})
	for i := range r.nodes {
		seq = 0
		r.nodes[i].segments(func(seg []Event) {
			for _, e := range seg {
				keys = append(keys, k.key(e.Round, e.Node, e.Kind)|seq)
				seq++
			}
		})
	}
	radixSort(keys, k.kindShift, k.bits)
	seqMask := uint64(1)<<k.kindShift - 1
	kindMask := uint64(1)<<(k.nodeShift-k.kindShift) - 1
	nodeMask := uint64(1)<<(k.roundShift-k.nodeShift) - 1
	for _, key := range keys {
		i := int(key & seqMask)
		if isSchedKind(Kind(key >> k.kindShift & kindMask)) {
			out = append(out, r.sched.at(i).event())
		} else {
			v := int32(key>>k.nodeShift&nodeMask) + k.minV
			out = append(out, r.nodes[v].at(i))
		}
	}
	return out
}

// isSchedKind reports whether kind k is recorded on the scheduler
// stream.
func isSchedKind(k Kind) bool { return k >= KindAwake && k <= KindLost }

// keyBounds collects the ranges of the canonical key fields.
type keyBounds struct {
	n          int
	minR, maxR int64
	minV, maxV int32
	maxK       Kind
}

func (b *keyBounds) add(round int64, node int32, kind Kind) {
	if b.n == 0 {
		b.minR, b.maxR, b.minV, b.maxV = round, round, node, node
	}
	b.n++
	b.minR, b.maxR = min(b.minR, round), max(b.maxR, round)
	b.minV, b.maxV = min(b.minV, node), max(b.maxV, node)
	b.maxK = max(b.maxK, kind)
}

// keyLayout places the fields of the packed canonical key, from the
// top: round, node and kind, then the per-stream sequence.
type keyLayout struct {
	minR                             int64
	minV                             int32
	kindShift, nodeShift, roundShift int
	bits                             int
}

// layout returns the key layout for streams of at most longest
// events, or false when the fields need more than 64 bits. Differences
// in unsigned arithmetic are exact: max >= min.
func (b *keyBounds) layout(longest int) (keyLayout, bool) {
	k := keyLayout{minR: b.minR, minV: b.minV}
	k.kindShift = bits.Len(uint(max(longest, 1) - 1))
	k.nodeShift = k.kindShift + bits.Len8(uint8(b.maxK))
	k.roundShift = k.nodeShift + bits.Len32(uint32(b.maxV)-uint32(b.minV))
	k.bits = k.roundShift + bits.Len64(uint64(b.maxR)-uint64(b.minR))
	return k, k.bits <= 64
}

func (k *keyLayout) key(round int64, node int32, kind Kind) uint64 {
	return (uint64(round)-uint64(k.minR))<<k.roundShift |
		uint64(uint32(node)-uint32(k.minV))<<k.nodeShift |
		uint64(kind)<<k.kindShift
}

// radixSort sorts keys on bits [lo, hi) with stable least-significant
// digit passes of at most 11 bits, O(len(keys)) each; keys equal on
// those bits keep their order, and a pass whose digit is the same in
// every key is skipped.
func radixSort(keys []uint64, lo, hi int) {
	if len(keys) < 2 || hi <= lo {
		return
	}
	passes := (hi - lo + 10) / 11
	width := (hi - lo + passes - 1) / passes
	mask := uint64(1)<<width - 1
	count := make([]int, 1<<width)
	src, dst := keys, make([]uint64, len(keys))
	for shift := lo; shift < hi; shift += width {
		clear(count)
		for _, k := range src {
			count[k>>shift&mask]++
		}
		if count[src[0]>>shift&mask] == len(src) {
			continue
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range src {
			d := k >> shift & mask
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// Meta is the run-level header/footer information of a JSONL trace.
type Meta struct {
	// N is the node count of the run.
	N int
	// Rounds is the largest awake round observed.
	Rounds int64
	// Events is the number of event lines in the stream.
	Events int64
	// Dropped counts events evicted by ring overflow (they are missing
	// from the stream).
	Dropped int64
}

// Meta returns the run-level header for the current recording.
func (r *Recorder) Meta() Meta {
	return Meta{N: r.n, Rounds: r.rounds, Events: int64(r.Len()), Dropped: r.Dropped()}
}

// WriteJSONL writes the canonical trace: a begin line, one line per
// event in canonical order, and an end line. The field order within
// each line is fixed, so a fixed-seed run produces a byte-identical
// stream. See DESIGN.md §8 for the field-by-field schema.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	return WriteEventsJSONL(w, r.Meta(), r.Events())
}

// WriteEventsJSONL writes a (meta, events) pair in the canonical JSONL
// trace format — the same stream WriteJSONL produces from a live
// recorder. It lets callers that hold onto a finished run's events
// (e.g. the model checker emitting a counterexample) serialize them
// without keeping the recorder alive; events must already be in
// canonical order. Lines are encoded into one reused buffer that is
// written to w whenever it fills.
func WriteEventsJSONL(w io.Writer, meta Meta, events []Event) error {
	const chunk = 64 << 10
	buf := beginLine(meta).appendTo(make([]byte, 0, chunk))
	var l line
	for _, ev := range events {
		if len(buf) > chunk-maxEventLine {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		if eventLine(&l, ev) {
			buf = l.appendTo(buf)
		}
	}
	buf = endLine(meta).appendTo(buf)
	_, err := w.Write(buf)
	return err
}

// JSONLSize returns the exact byte length of the stream
// WriteEventsJSONL writes for (meta, events), without rendering it.
func JSONLSize(meta Meta, events []Event) int {
	n := beginLine(meta).size() + endLine(meta).size()
	var l line
	for _, ev := range events {
		if eventLine(&l, ev) {
			n += l.size()
		}
	}
	return n
}

// maxEventLine bounds one event line: four keys of at most 25 bytes
// (the step key of mis-cleanup), four integers of at most 20 bytes,
// and the closing "}\n".
const maxEventLine = 4*25 + 4*20 + 2

// line is one JSONL record: each key literal is followed by its
// decimal integer value, and "}\n" closes the record. The key
// literals carry all the fixed text, including the `{"k":"...",`
// opening.
type line struct {
	keys []string
	vals [4]int64
}

func (l *line) appendTo(b []byte) []byte {
	for i, k := range l.keys {
		b = append(b, k...)
		b = strconv.AppendInt(b, l.vals[i], 10)
	}
	return append(b, "}\n"...)
}

func (l *line) size() int {
	n := len("}\n")
	for i, k := range l.keys {
		n += len(k) + intLen(l.vals[i])
	}
	return n
}

// intLen returns the length of v in decimal.
func intLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

func beginLine(meta Meta) *line {
	return &line{keys: []string{`{"k":"begin","n":`}, vals: [4]int64{int64(meta.N)}}
}

func endLine(meta Meta) *line {
	return &line{keys: []string{`{"k":"end","rounds":`, `,"events":`, `,"dropped":`},
		vals: [4]int64{meta.Rounds, meta.Events, meta.Dropped}}
}

// lineKeys holds each kind's key literals, in the kind's fixed field
// order; every line starts with the round and the node. The step line
// takes its keys from stepLineKeys instead.
var lineKeys = [...][]string{
	KindPhase:   {`{"k":"phase","r":`, `,"v":`, `,"ph":`, `,"f":`},
	KindMerge:   {`{"k":"merge","r":`, `,"v":`, `,"f":`, `,"pf":`},
	KindSleep:   {`{"k":"sleep","r":`, `,"v":`, `,"from":`},
	KindAwake:   {`{"k":"awake","r":`, `,"v":`},
	KindSend:    {`{"k":"send","r":`, `,"v":`, `,"p":`, `,"to":`},
	KindDeliver: {`{"k":"deliver","r":`, `,"v":`, `,"p":`, `,"from":`},
	KindLost:    {`{"k":"lost","r":`, `,"v":`, `,"p":`, `,"to":`},
	KindCrash:   {`{"k":"crash","r":`, `,"v":`},
	KindNbrs:    {`{"k":"nbrs","r":`, `,"v":`, `,"ph":`, `,"deg":`},
}

// stepLineKeys holds the step line's keys for every known step: the
// step name is fixed text between the phase and the awake count.
var stepLineKeys = func() (keys [StepMISCleanup + 1][]string) {
	for s := range keys {
		keys[s] = stepKeys(Step(s))
	}
	return keys
}()

func stepKeys(s Step) []string {
	return []string{`{"k":"step","r":`, `,"v":`, `,"ph":`, `,"st":"` + s.String() + `","aw":`}
}

// eventLine fills l with ev's line; it reports false for an unknown
// kind, which renders no line.
func eventLine(l *line, ev Event) bool {
	l.vals[0], l.vals[1] = ev.Round, int64(ev.Node)
	switch ev.Kind {
	case KindPhase:
		l.vals[2], l.vals[3] = int64(ev.Phase), ev.Frag
	case KindStep:
		l.vals[2], l.vals[3] = int64(ev.Phase), ev.Aux
		if int(ev.Step) < len(stepLineKeys) {
			l.keys = stepLineKeys[ev.Step]
		} else {
			l.keys = stepKeys(ev.Step)
		}
		return true
	case KindMerge:
		l.vals[2], l.vals[3] = ev.Frag, ev.Prev
	case KindSleep:
		l.vals[2] = ev.Aux
	case KindAwake, KindCrash:
	case KindSend, KindDeliver, KindLost:
		l.vals[2], l.vals[3] = int64(ev.Port), int64(ev.Peer)
	case KindNbrs:
		l.vals[2], l.vals[3] = int64(ev.Phase), ev.Aux
	default:
		return false
	}
	l.keys = lineKeys[ev.Kind]
	return true
}

// String renders the event as its JSONL line (without the trailing
// newline), the same bytes WriteJSONL emits for it; an unknown kind
// renders as "".
func (ev Event) String() string {
	var l line
	if !eventLine(&l, ev) {
		return ""
	}
	b := l.appendTo(nil)
	return string(b[:len(b)-1])
}
