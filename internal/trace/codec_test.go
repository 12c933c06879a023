package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// referenceWriteJSONL is the fmt-based writer the append encoder
// replaced, kept as its byte oracle.
func referenceWriteJSONL(w io.Writer, meta Meta, events []Event) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"k":"begin","n":%d}`+"\n", meta.N)
	for _, ev := range events {
		referenceWriteEvent(bw, ev)
	}
	fmt.Fprintf(bw, `{"k":"end","rounds":%d,"events":%d,"dropped":%d}`+"\n", meta.Rounds, meta.Events, meta.Dropped)
	return bw.Flush()
}

func referenceWriteEvent(w io.Writer, ev Event) {
	switch ev.Kind {
	case KindPhase:
		fmt.Fprintf(w, `{"k":"phase","r":%d,"v":%d,"ph":%d,"f":%d}`+"\n", ev.Round, ev.Node, ev.Phase, ev.Frag)
	case KindStep:
		fmt.Fprintf(w, `{"k":"step","r":%d,"v":%d,"ph":%d,"st":"%s","aw":%d}`+"\n", ev.Round, ev.Node, ev.Phase, ev.Step, ev.Aux)
	case KindMerge:
		fmt.Fprintf(w, `{"k":"merge","r":%d,"v":%d,"f":%d,"pf":%d}`+"\n", ev.Round, ev.Node, ev.Frag, ev.Prev)
	case KindSleep:
		fmt.Fprintf(w, `{"k":"sleep","r":%d,"v":%d,"from":%d}`+"\n", ev.Round, ev.Node, ev.Aux)
	case KindAwake:
		fmt.Fprintf(w, `{"k":"awake","r":%d,"v":%d}`+"\n", ev.Round, ev.Node)
	case KindSend:
		fmt.Fprintf(w, `{"k":"send","r":%d,"v":%d,"p":%d,"to":%d}`+"\n", ev.Round, ev.Node, ev.Port, ev.Peer)
	case KindDeliver:
		fmt.Fprintf(w, `{"k":"deliver","r":%d,"v":%d,"p":%d,"from":%d}`+"\n", ev.Round, ev.Node, ev.Port, ev.Peer)
	case KindLost:
		fmt.Fprintf(w, `{"k":"lost","r":%d,"v":%d,"p":%d,"to":%d}`+"\n", ev.Round, ev.Node, ev.Port, ev.Peer)
	case KindCrash:
		fmt.Fprintf(w, `{"k":"crash","r":%d,"v":%d}`+"\n", ev.Round, ev.Node)
	case KindNbrs:
		fmt.Fprintf(w, `{"k":"nbrs","r":%d,"v":%d,"ph":%d,"deg":%d}`+"\n", ev.Round, ev.Node, ev.Phase, ev.Aux)
	}
}

func referenceString(ev Event) string {
	var b strings.Builder
	referenceWriteEvent(&b, ev)
	return strings.TrimSuffix(b.String(), "\n")
}

// requireReferenceBytes renders (meta, events) with both writers and
// demands identical bytes, a matching JSONLSize, and matching
// Event.String lines.
func requireReferenceBytes(t *testing.T, meta Meta, events []Event) []byte {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteEventsJSONL(&got, meta, events); err != nil {
		t.Fatal(err)
	}
	if err := referenceWriteJSONL(&want, meta, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < min(len(g), len(w)); i++ {
			if g[i] != w[i] {
				t.Fatalf("line %d: encoder wrote %q, reference %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("encoder wrote %d lines, reference %d", len(g), len(w))
	}
	if size := JSONLSize(meta, events); size != got.Len() {
		t.Fatalf("JSONLSize = %d, rendered %d bytes", size, got.Len())
	}
	for _, ev := range events {
		if s, w := ev.String(), referenceString(ev); s != w {
			t.Fatalf("String() = %q, reference %q", s, w)
		}
	}
	return got.Bytes()
}

// TestEncoderMatchesReference compares the encoder with the fmt
// reference on every kind, every known and some unknown steps, unknown
// kinds (which write no line), and integer extremes in every field.
func TestEncoderMatchesReference(t *testing.T) {
	vals64 := []int64{0, 1, -1, 9, 10, -10, 99, 100, -100, 12345, math.MaxInt32, math.MinInt32,
		math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	vals32 := []int32{0, 1, -1, 9, 10, -10, 999, math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1}
	steps := append(Steps[:], StepNone, Step(10), Step(99), Step(255))
	var events []Event
	for k := Kind(0); k <= KindNbrs+2; k++ {
		for i, v := range vals64 {
			w := vals32[i%len(vals32)]
			events = append(events, Event{
				Kind: k, Round: v, Frag: -v, Prev: vals64[(i+3)%len(vals64)], Aux: vals64[(i+7)%len(vals64)],
				Node: w, Port: -w, Peer: vals32[(i+2)%len(vals32)], Phase: vals32[(i+5)%len(vals32)],
				Step: steps[i%len(steps)],
			})
		}
	}
	events = append(events, Event{Kind: Kind(200), Round: 1}, Event{Kind: Kind(255)})
	for _, meta := range []Meta{
		{},
		{N: 352, Rounds: 2048, Events: int64(len(events)), Dropped: 7},
		{N: math.MaxInt, Rounds: math.MinInt64, Events: math.MaxInt64, Dropped: -1},
		{N: math.MinInt, Rounds: math.MaxInt64, Events: math.MinInt64, Dropped: math.MaxInt64},
	} {
		requireReferenceBytes(t, meta, events)
	}
	for _, k := range []Kind{KindNbrs + 1, Kind(200), Kind(255)} {
		if s := (Event{Kind: k, Round: 3}).String(); s != "" {
			t.Errorf("unknown kind %d renders %q, want no line", k, s)
		}
	}
}

// TestJSONLSizeGoldens checks the encoder and JSONLSize against every
// checked-in golden trace: re-rendering the parsed trace reproduces
// the file byte for byte, and JSONLSize is its length.
func TestJSONLSizeGoldens(t *testing.T) {
	for _, name := range []string{"trace_golden.jsonl", "trace_golden_mis.jsonl"} {
		data, err := os.ReadFile("../../testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		meta, events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := requireReferenceBytes(t, meta, events); !bytes.Equal(got, data) {
			t.Errorf("%s: re-rendered trace differs from the golden file", name)
		}
	}
}

// TestJSONLSizeRandomRecorders checks the encoder and JSONLSize on the
// canonical traces of random recorders, extremes included.
func TestJSONLSizeRandomRecorders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		r := recordProgram(randomProgram(rng, rng.Intn(800), 4*rng.Intn(64), trial%4 == 0))
		requireReferenceBytes(t, r.Meta(), r.Events())
	}
}

// FuzzTraceCodec drives a recorder from arbitrary recordProgram bytes
// and checks the whole codec against its references: the canonical
// order equals the five-field reference order, the encoder's bytes
// equal the fmt reference's, JSONLSize is exact, and ReadJSONL parses
// the stream back to the same meta and events.
func FuzzTraceCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	f.Add([]byte{})
	f.Add([]byte{2, 0, 4, 0, 0, 0, 5, 1, 0, 0})
	for _, ops := range []int{8, 64, 300} {
		f.Add(randomProgram(rng, ops, 16, false))
		f.Add(randomProgram(rng, ops, 0, true))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// 1024 calls already overflow the small rings many times over;
		// longer inputs only slow the fuzzer down.
		r := recordProgram(data[:min(len(data), 2+4*1024)])
		requireReferenceOrder(t, r)
		meta, events := r.Meta(), r.Events()
		rendered := requireReferenceBytes(t, meta, events)
		meta2, events2, err := ReadJSONL(bytes.NewReader(rendered))
		if err != nil {
			t.Fatalf("rendered trace does not parse: %v", err)
		}
		if meta2 != meta {
			t.Fatalf("meta did not round-trip: %+v vs %+v", meta, meta2)
		}
		if len(events2) != len(events) {
			t.Fatalf("event count did not round-trip: %d vs %d", len(events), len(events2))
		}
		for i := range events {
			if events[i] != events2[i] {
				t.Fatalf("event %d did not round-trip: %+v vs %+v", i, events[i], events2[i])
			}
		}
	})
}
