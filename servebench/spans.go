package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent is the id of the span that caused this one (-1 for
// a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// spans records spans in memory; they are written out once the run
// ends. Safe for concurrent use.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// start opens a span and returns its id.
func (s *spans) start(layer, name string, req, parent int64) int64 {
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := int64(len(s.list))
	s.list = append(s.list, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: now, Dur: -1})
	return id
}

// end closes span id and returns its duration.
func (s *spans) end(id int64) time.Duration {
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := &s.list[id]
	sp.Dur = now - sp.Start
	return time.Duration(sp.Dur)
}

// selfTimes returns each layer's self time: the summed durations of its
// spans minus the parts of those intervals their child spans cover.
func (s *spans) selfTimes() map[string]time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	children := map[int64][]span{}
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := map[string]time.Duration{}
	for _, sp := range s.list {
		out[sp.Layer] += time.Duration(sp.Dur - covered(children[sp.ID]))
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(list []span) int64 {
	sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
	var total, end int64
	for _, sp := range list {
		lo, hi := sp.Start, sp.Start+sp.Dur
		if lo < end {
			lo = end
		}
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// write renders the spans as JSON lines to path, creating its
// directory.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.encode(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

func (s *spans) encode(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return bw.Flush()
}
