package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"sleepmst/internal/service"
)

// statusUnanswered marks a request whose response never arrived
// within the workload's read deadline.
const statusUnanswered = "unanswered"

// server is one in-process service behind a loopback listener.
type server struct {
	svc   *service.Service
	srv   *service.Server
	addr  string
	done  chan error
	close sync.Once
}

// startServer starts a service with default limits on a loopback port.
func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.New(service.Config{})
	s := &server{svc: svc, srv: service.NewServer(svc), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the service and waits for the accept loop to exit.
func (s *server) stop() {
	s.close.Do(func() {
		s.srv.Shutdown()
		<-s.done
	})
}

// setup measures one service start: from service.New to the first
// warm-up response decoded by a fresh client connection. It returns
// the running server.
func setup() (*server, time.Duration, error) {
	start := time.Now()
	s, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	c, err := dial(s.addr)
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	defer c.conn.Close()
	req := service.Request{ID: 0, Problem: "mis", Graph: "ring", N: 16, Seed: 1}
	resp, err := c.roundTrip(req, 10*time.Second)
	if err == nil && resp.Status != service.StatusOK {
		err = fmt.Errorf("warm-up request answered %s: %s", resp.Status, resp.Detail)
	}
	if err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return s, time.Since(start), nil
}

// client is one closed-loop connection.
type client struct {
	conn net.Conn
	br   *bufio.Reader
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	return &client{conn: conn, br: bufio.NewReader(conn)}, nil
}

// roundTrip sends req and reads its response through the public wire
// API, waiting at most deadline for the response.
func (c *client) roundTrip(req service.Request, deadline time.Duration) (service.Response, error) {
	if err := service.WriteRequest(c.conn, req); err != nil {
		return service.Response{}, err
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(deadline)); err != nil {
		return service.Response{}, err
	}
	return service.ReadResponse(c.br)
}

// spannedRoundTrip is roundTrip with client spans around request
// encode, the wire round trip, and response decode. It reads the
// length-prefixed frame itself so decode time is separable from
// network time; the framing matches service.ReadResponse.
func (c *client) spannedRoundTrip(req service.Request, deadline time.Duration, sp *spans, parent int64) (service.Response, error) {
	s := sp.start("service", "request_encode", req.ID, parent)
	frame, err := service.AppendRequest(nil, req)
	sp.end(s)
	if err != nil {
		return service.Response{}, err
	}
	s = sp.start("server", "roundtrip", req.ID, parent)
	body, err := c.exchange(frame, deadline)
	sp.end(s)
	if err != nil {
		return service.Response{}, err
	}
	s = sp.start("service", "response_decode", req.ID, parent)
	resp, err := service.DecodeResponse(body)
	sp.end(s)
	return resp, err
}

// exchange writes one request frame and reads back one response frame
// body.
func (c *client) exchange(frame []byte, deadline time.Duration) ([]byte, error) {
	if _, err := c.conn.Write(frame); err != nil {
		return nil, err
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(deadline)); err != nil {
		return nil, err
	}
	length, err := binary.ReadUvarint(c.br)
	if err != nil {
		return nil, err
	}
	if length > service.MaxFrameBytes {
		return nil, fmt.Errorf("response frame length %d over the %d cap", length, service.MaxFrameBytes)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(c.br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// outcome is one issued request's result.
type outcome struct {
	id      int64
	pass    int
	status  string
	latency time.Duration
	// sum fingerprints (status, detail, artifact, trace).
	sum [32]byte
	// resp is kept for pass 0 only, for the checks after the load; its
	// trace is parked in the spill file at [traceOff, traceOff+traceLen).
	resp               service.Response
	traceOff, traceLen int64
	// bookkeeping is the client time spent on fingerprint and spill
	// inside the timed window.
	bookkeeping time.Duration
}

// spill parks shipped traces in a file under .bench_build while a load
// runs, so the benchmark's own copies stay out of the process heap the
// load measures. Safe for concurrent use.
type spill struct {
	mu  sync.Mutex
	f   *os.File
	off int64
}

func openSpill(dir string) (*spill, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "traces-*.bin")
	if err != nil {
		return nil, err
	}
	return &spill{f: f}, nil
}

// put appends b and returns its offset.
func (s *spill) put(b []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	off := s.off
	n, err := s.f.Write(b)
	s.off += int64(n)
	return off, err
}

// get reads back n bytes at off.
func (s *spill) get(off, n int64) ([]byte, error) {
	b := make([]byte, n)
	_, err := s.f.ReadAt(b, off)
	return b, err
}

// remove closes and deletes the file.
func (s *spill) remove() {
	s.f.Close()
	os.Remove(s.f.Name())
}

// loadResult is one load phase.
type loadResult struct {
	outcomes []outcome
	passes   int
	wall     time.Duration
	cpu      time.Duration
	peakHeap uint64
}

// dispatcher hands out requests pass by pass, so every load phase
// serves whole passes of the stratified list. At the end of a pass it
// stops when less than half a pass (at the mean pass time so far)
// remains of the window, so the served pass count is the window over
// the pass time, rounded, and at least one.
type dispatcher struct {
	mu    sync.Mutex
	n     int
	next  int
	pass  int
	start time.Time
	until time.Time
}

func (d *dispatcher) take() (idx, pass int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.next == d.n {
		now := time.Now()
		meanPass := now.Sub(d.start) / time.Duration(d.pass+1)
		if !now.Add(meanPass / 2).Before(d.until) {
			return 0, 0, false
		}
		d.next, d.pass = 0, d.pass+1
	}
	idx, pass = d.next, d.pass
	d.next++
	return idx, pass, true
}

// runLoad drives the closed loop: w.clients clients, each with one
// connection and one outstanding request, for about window, in whole
// passes over reqs. With sp non-nil every request carries client
// spans.
func runLoad(addr string, w workload, reqs []service.Request, window time.Duration, sp *spans, traces *spill) (*loadResult, error) {
	res := &loadResult{}
	var mu sync.Mutex
	stopSampler := make(chan struct{})
	samplerDone := make(chan uint64)
	go sampleHeap(stopSampler, samplerDone)

	cpu0 := cpuTime()
	start := time.Now()
	d := &dispatcher{n: len(reqs), start: start, until: start.Add(window)}
	errs := make(chan error, w.clients)
	for i := 0; i < w.clients; i++ {
		go func() {
			errs <- func() error {
				c, err := dial(addr)
				if err != nil {
					return err
				}
				defer func() { c.conn.Close() }()
				for {
					idx, pass, ok := d.take()
					if !ok {
						return nil
					}
					req := reqs[idx]
					var (
						resp  service.Response
						rtErr error
					)
					t0 := time.Now()
					if sp != nil {
						root := sp.start("client", "request", req.ID, -1)
						resp, rtErr = c.spannedRoundTrip(req, w.readDeadline, sp, root)
						sp.end(root)
					} else {
						resp, rtErr = c.roundTrip(req, w.readDeadline)
					}
					o := outcome{id: req.ID, pass: pass, latency: time.Since(t0)}
					switch {
					case rtErr == nil:
						if resp.ID != req.ID {
							return wrongOutput{fmt.Errorf("request %d: response carries id %d (closed loop broken)", req.ID, resp.ID)}
						}
						o.status = resp.Status.String()
						b0 := time.Now()
						o.sum = fingerprint(resp)
						if pass == 0 {
							if o.traceOff, err = traces.put(resp.Trace); err != nil {
								return err
							}
							o.traceLen, resp.Trace = int64(len(resp.Trace)), nil
							o.resp = resp
						}
						o.bookkeeping = time.Since(b0)
					case errors.Is(rtErr, os.ErrDeadlineExceeded), errors.Is(rtErr, io.EOF), errors.Is(rtErr, io.ErrUnexpectedEOF):
						// Unanswered: count it, drop the connection (a late
						// response must not be read as the next one's),
						// reconnect.
						o.status = statusUnanswered
						c.conn.Close()
						if c, err = dial(addr); err != nil {
							return err
						}
					default:
						return fmt.Errorf("request %d: %w", req.ID, rtErr)
					}
					mu.Lock()
					res.outcomes = append(res.outcomes, o)
					mu.Unlock()
				}
			}()
		}()
	}
	var firstErr error
	for i := 0; i < w.clients; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	close(stopSampler)
	res.peakHeap = <-samplerDone
	res.passes = d.pass + 1
	if firstErr != nil {
		return nil, firstErr
	}
	sort.Slice(res.outcomes, func(i, j int) bool {
		a, b := res.outcomes[i], res.outcomes[j]
		if a.pass != b.pass {
			return a.pass < b.pass
		}
		return a.id < b.id
	})
	return res, nil
}

// crc32c is the CRC-32C table; the hardware instruction makes hashing
// a multi-megabyte trace cost well under a millisecond inside the
// timed window.
var crc32c = crc32.MakeTable(crc32.Castagnoli)

// fingerprint hashes the parts of a response a deterministic service
// must reproduce exactly: the header and artifact with SHA-256, and
// the trace by its length and CRC-32C.
func fingerprint(resp service.Response) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%s|%d|%s|%d|", resp.ID, resp.Status, len(resp.Detail), resp.Detail, len(resp.Artifact))
	h.Write(resp.Artifact)
	fmt.Fprintf(h, "|%d|%08x", len(resp.Trace), crc32.Checksum(resp.Trace, crc32c))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMetric is the heap the last garbage collection found live.
const heapMetric = "/gc/heap/live:bytes"

// sampleHeap samples the live heap every 10ms until stop closes and
// sends the 90th percentile of the samples: the level the heap stays
// under for 90% of the load. The maximum moves with whether two large
// requests happened to overlap, and with when collections land; this
// percentile does not.
func sampleHeap(stop <-chan struct{}, peak chan<- uint64) {
	sample := []metrics.Sample{{Name: heapMetric}}
	var samples []uint64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(sample)
		samples = append(samples, sample[0].Value.Uint64())
		select {
		case <-stop:
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			peak <- samples[(len(samples)*90-1)/100]
			return
		case <-tick.C:
		}
	}
}
