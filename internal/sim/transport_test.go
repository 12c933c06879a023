package sim

import (
	"math/rand"
	"slices"
	"testing"

	"sleepmst/internal/transport"
)

// TestCanonicalizeKeepsFirstCopy feeds the drain's sort-and-compact
// step frames in arrival order, same-round duplicates tagged apart by
// their payload byte: the result must be the canonical deposit order
// (delayed copies by Seq, then fresh sends by sender and port) holding
// the first-arrived copy of each send, whether or not the frames
// arrived in canonical order.
func TestCanonicalizeKeepsFirstCopy(t *testing.T) {
	frame := func(seq int64, from, port int32, tag byte) transport.Frame {
		return transport.Frame{Round: 4, Seq: seq, From: from, Port: port, Payload: []byte{tag}}
	}
	for _, tc := range []struct {
		name   string
		frames []transport.Frame
		want   string
	}{
		{"unsorted", []transport.Frame{
			frame(0, 3, 1, 'a'), frame(2, 0, 0, 'b'), frame(0, 1, 2, 'c'), frame(0, 3, 1, 'd'),
			frame(1, 5, 0, 'e'), frame(2, 0, 0, 'f'), frame(0, 1, 0, 'g'), frame(0, 1, 2, 'h'),
			frame(1, 5, 0, 'i'),
		}, "ebgca"},
		{"sorted", []transport.Frame{
			frame(1, 2, 0, 'a'), frame(1, 2, 0, 'b'), frame(3, 0, 1, 'c'), frame(0, 0, 0, 'd'),
			frame(0, 0, 1, 'e'), frame(0, 0, 1, 'f'), frame(0, 0, 1, 'g'), frame(0, 7, 0, 'h'),
		}, "acdeh"},
	} {
		s := &txState{frames: slices.Clone(tc.frames)}
		s.canonicalize()
		var got []byte
		for _, f := range s.frames {
			got = append(got, f.Payload[0])
		}
		if string(got) != tc.want {
			t.Errorf("%s: kept %q, want %q", tc.name, got, tc.want)
		}
	}

	// Many sends, four copies each, in a shuffled arrival order: past
	// the insertion-sort cutoff, an unstable sort would let later
	// copies win. The payload byte is the copy's arrival rank.
	type send struct {
		seq        int64
		from, port int32
	}
	var sends []send
	for i := 0; i < 40; i++ {
		sends = append(sends, send{int64(i % 5), int32(i * 7 % 13), int32(i % 3)})
	}
	slices.SortFunc(sends, func(a, b send) int {
		return canonical(transport.Frame{Seq: a.seq, From: a.from, Port: a.port}, transport.Frame{Seq: b.seq, From: b.from, Port: b.port})
	})
	sends = slices.CompactFunc(sends, func(a, b send) bool { return a == b })
	var arrivals []transport.Frame
	for copies := 0; copies < 4; copies++ {
		for _, sd := range sends {
			arrivals = append(arrivals, frame(sd.seq, sd.from, sd.port, 0))
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
	rank := map[send]byte{}
	for i := range arrivals {
		k := send{arrivals[i].Seq, arrivals[i].From, arrivals[i].Port}
		arrivals[i].Payload = []byte{rank[k]}
		rank[k]++
	}
	s := &txState{frames: arrivals}
	s.canonicalize()
	if len(s.frames) != len(sends) {
		t.Fatalf("shuffled: kept %d frames, want %d", len(s.frames), len(sends))
	}
	for i, f := range s.frames {
		if (send{f.Seq, f.From, f.Port}) != sends[i] || f.Payload[0] != 0 {
			t.Fatalf("shuffled: frame %d is %+v (copy %d), want %+v (copy 0)", i, f, f.Payload[0], sends[i])
		}
	}
}
