package sim

import (
	"cmp"
	"fmt"
	"slices"

	"sleepmst/internal/graph"
	"sleepmst/internal/transport"
)

// The transport shim: with Config.Transport set, every same-round
// message copy that would reach an awake receiver is encoded into a
// wire frame, carried by the backend, and decoded back before it is
// deposited into the receiver's inbox. The simulator keeps all model
// decisions — sleeping-receiver losses are decided at the sending
// radio and never transmitted, the CONGEST bit cap is enforced on the
// declared size at both ends, and awake metering is untouched — so a
// run over a transport is byte-identical (traces, verdicts, metrics,
// Result) to the in-memory run, which the differential suite in
// internal/problem enforces.
//
// Delivery stays two-phase per round: the scheduler ships all of the
// round's surviving copies, then drains each receiver until the
// expected number of distinct frames arrived — wire duplicates from
// at-least-once retries are filtered, not counted — and deposits in
// the canonical order (scheduler-delayed copies first, by their FIFO
// sequence, then fresh sends by sender and port — exactly the
// in-memory deposit order).

// txState is the per-run transport bookkeeping, owned by the
// scheduler goroutine.
type txState struct {
	tx transport.Transport
	// links[portBase[v]+p] is the link node v sends on through port
	// p, dialed on first use; the port slots number like the slot
	// arena's, one per port of the graph.
	links    []transport.Link
	portBase []int
	// expect[v] counts frames shipped towards v this round; pending
	// lists the v with expect[v] > 0.
	expect  []int
	pending []int
	// slab holds this round's encoded payloads; the drain decodes
	// them through dec and then recycles the slab (see Transport).
	slab   transport.Slab
	dec    transport.Reader
	frames []transport.Frame // drain scratch
}

func newTxState(tx transport.Transport, g *graph.Graph) *txState {
	n := g.N()
	s := &txState{tx: tx, links: make([]transport.Link, 2*g.M()), portBase: make([]int, n), expect: make([]int, n)}
	for v, base := 0, 0; v < n; v++ {
		s.portBase[v] = base
		base += g.Degree(v)
	}
	return s
}

// route carries one message copy towards an awake receiver: straight
// to deposit without a transport, over the wire otherwise. seq is 0
// for a fresh same-round send and the scheduler's FIFO sequence for a
// copy the interceptor delayed into this round.
func (rt *runtime) route(round, seq int64, from, fromPort, to, rev int, msg interface{}) error {
	if rt.tx == nil {
		return rt.deposit(round, from, fromPort, to, rev, msg)
	}
	if err := rt.tx.ship(round, seq, from, fromPort, to, rev, msg); err != nil {
		return fmt.Errorf("sim: transport: %w (%w)", err, ErrAborted)
	}
	return nil
}

// ship encodes the payload into the slab and hands the frame to the
// backend.
func (s *txState) ship(round, seq int64, from, fromPort, to, rev int, msg interface{}) error {
	payload, err := s.slab.Encode(msg)
	if err != nil {
		return err
	}
	slot := s.portBase[from] + fromPort
	link := s.links[slot]
	if link == nil {
		if link, err = s.tx.Dial(from, to); err != nil {
			return err
		}
		s.links[slot] = link
	}
	f := transport.Frame{
		Round: round, Seq: seq,
		From: int32(from), Port: int32(fromPort),
		To: int32(to), Rev: int32(rev),
		Payload: payload,
	}
	if err := link.Send(f); err != nil {
		return err
	}
	if s.expect[to] == 0 {
		s.pending = append(s.pending, to)
	}
	s.expect[to]++
	return nil
}

// txDrain receives every frame shipped this round and deposits the
// decoded copies in the canonical in-memory order.
func (rt *runtime) txDrain(round int64) error {
	s := rt.tx
	if len(s.pending) == 0 {
		return nil
	}
	slices.Sort(s.pending)
	for _, to := range s.pending {
		want := s.expect[to]
		s.expect[to] = 0
		if err := s.receive(round, to, want); err != nil {
			return err
		}
		for _, f := range s.frames {
			msg, err := s.dec.DecodePayload(f.Payload)
			if err != nil {
				return fmt.Errorf("sim: transport: node %d round %d: %w (%w)", to, round, err, ErrAborted)
			}
			if err := rt.deposit(round, int(f.From), int(f.Port), int(f.To), int(f.Rev), msg); err != nil {
				return err
			}
		}
	}
	s.pending = s.pending[:0]
	// Every payload of the round is decoded; copies still held by the
	// backend are duplicates, skipped as stale before any decode.
	s.slab.Reset()
	return nil
}

// receive reads node to's frames of this round until want distinct
// copies arrived and leaves them in s.frames in canonical order. The
// wire is at-least-once (a sender's retry can duplicate a frame that
// did reach us before the write error surfaced), so duplicates — same
// coordinates this round, or a stale retransmit of an earlier round —
// are dropped without counting toward want, and of a same-round
// duplicate the first copy to arrive is kept.
func (s *txState) receive(round int64, to, want int) error {
	s.frames = s.frames[:0]
	for len(s.frames) < want {
		// Read only the copies still missing: duplicates among them
		// show after the compaction below, so the loop never reads
		// past the want-th distinct frame.
		for need := want - len(s.frames); need > 0; {
			f, err := s.tx.Recv(to)
			if err != nil {
				s.canonicalize()
				return fmt.Errorf("sim: transport: round %d node %d: received %d of %d frame(s): %w (%w)",
					round, to, len(s.frames), want, err, ErrAborted)
			}
			if int(f.To) != to || f.Round > round {
				return fmt.Errorf("sim: transport: node %d drained stray frame (round %d from %d) during round %d: %w",
					to, f.Round, f.From, round, ErrAborted)
			}
			if f.Round < round {
				continue // stale duplicate of an already-drained round
			}
			s.frames = append(s.frames, f)
			need--
		}
		s.canonicalize()
	}
	return nil
}

// canonicalize sorts s.frames into the canonical deposit order and
// drops same-round duplicates. The sort is stable, so the first copy
// to arrive is the one kept. Frames already in strictly increasing
// order hold no duplicates; a backend that delivers in order (Inproc)
// pays only that scan.
func (s *txState) canonicalize() {
	for i := 1; i < len(s.frames); i++ {
		if canonical(s.frames[i-1], s.frames[i]) >= 0 {
			slices.SortStableFunc(s.frames, canonical)
			s.frames = slices.CompactFunc(s.frames, func(a, b transport.Frame) bool { return canonical(a, b) == 0 })
			return
		}
	}
}

// canonical orders one receiver's frames as the in-memory path
// deposits them: scheduler-delayed copies first, in their FIFO
// sequence, then fresh sends by (sender, port) — so a fresh message
// overwrites a stale same-port replay, not vice versa. Seq-1 as an
// unsigned number puts the fresh sends' Seq 0 last. Frames comparing
// equal are copies of one send: fresh sends are unique per (sender,
// port), delayed replays per FIFO sequence.
func canonical(a, b transport.Frame) int {
	return cmp.Or(
		cmp.Compare(uint64(a.Seq-1), uint64(b.Seq-1)),
		cmp.Compare(a.From, b.From),
		cmp.Compare(a.Port, b.Port),
	)
}
