package trace_test

import (
	"io"
	"sync"
	"testing"

	"sleepmst/internal/core"
	"sleepmst/internal/problem"
	"sleepmst/internal/service"
	"sleepmst/internal/trace"
)

// benchRecorder records one mst/randomized run on the service's random
// n=352 graph (seed 1) at the service's default trace capacity — the
// shape of serve-verify's largest requests, about 240k live events.
var benchRecorder = sync.OnceValues(func() (*trace.Recorder, error) {
	g, err := service.BuildGraph("random", 352, 0, 0, 0, 1)
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
})

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
