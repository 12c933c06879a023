package trace_test

import (
	"io"
	"sync"
	"testing"

	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/problem"
	"sleepmst/internal/service"
	"sleepmst/internal/trace"
)

// benchRecorder records one mst/randomized run on the service's random
// n=352 graph (seed 1) at the service's default trace capacity — the
// shape of serve-verify's largest requests, about 240k live events.
var benchRecorder = sync.OnceValues(func() (*trace.Recorder, error) { return recordRandomized(352) })

// recordRandomized records mst/randomized on the service's random
// n-node graph (seed 1) at the service's default trace capacity.
func recordRandomized(n int) (*trace.Recorder, error) {
	g, err := service.BuildGraph("random", n, 0, 0, 0, 1)
	if err != nil {
		return nil, err
	}
	p, err := problem.Lookup("mst/randomized")
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(service.DefaultTraceCap)
	if _, err := p.Run(g, core.Options{Seed: 1, Trace: rec}); err != nil {
		return nil, err
	}
	return rec, nil
}

// benchShapes are the per-layer benchmark shapes: mst/randomized on
// the random graph of serve-wire's largest requests (n=256) and of
// serve-large's largest (n=4096, the service's MaxN). Each records
// once, on first use.
var benchShapes = []struct {
	name string
	rec  func() (*trace.Recorder, error)
}{
	{"serve-wire", sync.OnceValues(func() (*trace.Recorder, error) { return recordRandomized(256) })},
	{"serve-large", sync.OnceValues(func() (*trace.Recorder, error) { return recordRandomized(4096) })},
}

// forShapes runs bench as one sub-benchmark per shape, with the shape's
// recorder.
func forShapes(b *testing.B, bench func(b *testing.B, rec *trace.Recorder)) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rec, err := shape.rec()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			bench(b, rec)
		})
	}
}

// perEvent reports the benchmark's time per event of events.
func perEvent(b *testing.B, events int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
}

// BenchmarkRecord measures recording: it replays a run's live events,
// in canonical order, through the recording methods into a fresh
// recorder of the service's capacity.
func BenchmarkRecord(b *testing.B) {
	forShapes(b, func(b *testing.B, src *trace.Recorder) {
		events := src.Events()
		for i := 0; i < b.N; i++ {
			rec := trace.NewRecorder(service.DefaultTraceCap)
			rec.Begin(src.N())
			for _, ev := range events {
				v := int(ev.Node)
				switch ev.Kind {
				case trace.KindAwake:
					rec.Awake(ev.Round, v)
				case trace.KindSend:
					rec.Send(ev.Round, v, int(ev.Port), int(ev.Peer))
				case trace.KindDeliver:
					rec.Deliver(ev.Round, v, int(ev.Port), int(ev.Peer))
				case trace.KindLost:
					rec.Lost(ev.Round, v, int(ev.Port), int(ev.Peer))
				case trace.KindPhase:
					rec.Phase(v, ev.Round, int(ev.Phase), ev.Frag)
				case trace.KindStep:
					rec.StepDone(v, ev.Round, int(ev.Phase), ev.Step, ev.Aux)
				case trace.KindMerge:
					rec.Merge(v, ev.Round, ev.Prev, ev.Frag)
				case trace.KindSleep:
					rec.Sleep(v, ev.Aux, ev.Round)
				case trace.KindCrash:
					rec.Crash(v, ev.Round)
				case trace.KindNbrs:
					rec.Nbrs(v, ev.Round, int(ev.Phase), int(ev.Aux))
				}
			}
		}
		perEvent(b, len(events))
	})
}

// BenchmarkCheckTrace measures certifying a run's canonical trace with
// the invariant catalog.
func BenchmarkCheckTrace(b *testing.B) {
	forShapes(b, func(b *testing.B, rec *trace.Recorder) {
		meta, events := rec.Meta(), rec.Events()
		info := conform.RunInfo{Algorithm: conform.AlgoRandomized, N: rec.N(), Seed: 1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if v := conform.CheckTrace(meta, events, info); !v.Pass {
				b.Fatalf("verdict fails: %v", v.Failures())
			}
		}
		perEvent(b, len(events))
	})
}

func loadBenchRecorder(b *testing.B) *trace.Recorder {
	b.Helper()
	rec, err := benchRecorder()
	if err != nil {
		b.Fatal(err)
	}
	return rec
}

// eventsSink keeps the benchmarked result alive.
var eventsSink []trace.Event

// BenchmarkEvents measures building the canonical event order from the
// recorder's streams.
func BenchmarkEvents(b *testing.B) {
	rec := loadBenchRecorder(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eventsSink = rec.Events()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rec.Len()), "ns/event")
}

// BenchmarkWriteEventsJSONL measures rendering a canonical event slice
// as the JSONL trace.
func BenchmarkWriteEventsJSONL(b *testing.B) {
	rec := loadBenchRecorder(b)
	meta, events := rec.Meta(), rec.Events()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.WriteEventsJSONL(io.Discard, meta, events); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}
