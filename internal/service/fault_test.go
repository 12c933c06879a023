package service

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sleepmst/internal/metrics"
)

// The fault-path battery: every documented failure mode — deadline
// exceeded, queue-full rejection, malformed request frame, and a
// mid-request drain — returns its documented status code, and none of
// them leaks a goroutine: after Drain/Shutdown the process is back to
// its pre-test goroutine count.

// assertNoLeaks polls until the goroutine count settles back to the
// before snapshot (scheduler teardown is asynchronous), failing with
// a full stack dump if it never does.
func assertNoLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultDeadline: an expired per-request deadline cancels the
// running cell at a round barrier — StatusDeadline, no partial
// artifact, no leaked node programs. The service runs every request on
// the event engine; cancellation on the goroutine reference engine is
// pinned in internal/core's cancel tests.
func TestFaultDeadline(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		before := runtime.NumGoroutine()
		svc := New(Config{Workers: 1})
		resp := svc.Submit(Request{
			ID: 1, Problem: "mst/randomized", Graph: "random", N: 512,
			Seed: 1, Deadline: time.Nanosecond,
		})
		svc.Drain()
		if resp.Status != StatusDeadline {
			t.Fatalf("status %v (%s), want deadline", resp.Status, resp.Detail)
		}
		if !strings.Contains(resp.Detail, "deadline") {
			t.Errorf("detail %q does not mention the deadline", resp.Detail)
		}
		if len(resp.Artifact) != 0 {
			t.Error("deadline response carries a partial artifact")
		}
		if got := svc.Metrics().Get("service/status/deadline"); got != 1 {
			t.Errorf("service/status/deadline = %d, want 1", got)
		}
		assertNoLeaks(t, before)
	})
}

// TestFaultDeadlineCountsQueueWait: the deadline clock starts at
// Submit, so a request stuck in the admission queue past its deadline
// is answered StatusDeadline without ever running — queue wait is not
// free time on top of the documented end-to-end bound.
func TestFaultDeadlineCountsQueueWait(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 1})
	// Wedge the only worker so the request can't leave the queue.
	release := make(chan struct{})
	if err := svc.pool.TrySubmit(func() { <-release }); err != nil {
		t.Fatal(err)
	}
	done := make(chan Response, 1)
	go func() {
		done <- svc.Submit(Request{
			ID: 9, Problem: "mis", Graph: "ring", N: 8,
			Deadline: 20 * time.Millisecond,
		})
	}()
	time.Sleep(100 * time.Millisecond) // let the deadline expire in the queue
	close(release)
	resp := <-done
	svc.Drain()
	if resp.Status != StatusDeadline {
		t.Fatalf("status %v (%s), want deadline", resp.Status, resp.Detail)
	}
	if !strings.Contains(resp.Detail, "queued") {
		t.Errorf("detail %q does not attribute the expiry to queue wait", resp.Detail)
	}
	if len(resp.Artifact) != 0 {
		t.Error("queued-past-deadline response carries an artifact")
	}
	assertNoLeaks(t, before)
}

// TestFaultOverload: with one worker and a queue of one, a burst of
// concurrent requests splits into the two documented outcomes — ok
// for the admitted, overloaded for the rejected — and every response
// is one of them.
func TestFaultOverload(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 1, QueueDepth: 1})
	const burst = 12
	responses := make([]Response, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i] = svc.Submit(Request{
				ID: int64(i), Problem: "mst/randomized", Graph: "random", N: 400, Seed: int64(i),
			})
		}(i)
	}
	wg.Wait()
	svc.Drain()

	var ok, overloaded int
	for _, resp := range responses {
		switch resp.Status {
		case StatusOK:
			ok++
		case StatusOverloaded:
			overloaded++
			if !strings.Contains(resp.Detail, "queue full") {
				t.Errorf("overload detail %q does not mention the queue", resp.Detail)
			}
		default:
			t.Errorf("request %d: undocumented burst outcome %v (%s)", resp.ID, resp.Status, resp.Detail)
		}
	}
	if ok == 0 || overloaded == 0 {
		t.Errorf("burst did not exercise both outcomes: %d ok, %d overloaded", ok, overloaded)
	}
	if got := svc.Metrics().Get("service/status/overloaded"); got != int64(overloaded) {
		t.Errorf("service/status/overloaded = %d, want %d", got, overloaded)
	}
	assertNoLeaks(t, before)
}

// engineLayoutBody is a request frame body in the layout that carried
// a scheduler name between Seed and Transport (here "goroutine"): the
// full fuzz seed as the corpus held it before that field was dropped.
var engineLayoutBody = []byte("PT\x0emst/randomized\x06sensor\x80\x01\x80\x02\x10\x80\x80\x80\x80\x80\x80\x80\xe8?\r\tgoroutine\x03tcp\x80\x80\b\x80\xf8\x82\xad\x16\x01")

// TestFaultMalformedFrame: an undecodable frame is answered with the
// documented bad-frame response (ID -1, StatusInvalid), counted in
// service/frames/bad, and the connection is hung up.
func TestFaultMalformedFrame(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
	}{
		// A uvarint length prefix far over MaxFrameBytes.
		{"oversized length", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		// A well-formed length prefix over a garbage body.
		{"garbage body", append([]byte{4}, 0xde, 0xad, 0xbe, 0xef)},
		// A response frame where a request belongs.
		{"wrong kind", mustFrame(Response{ID: 9, Status: StatusOK})},
		// A request frame that still carries the scheduler-name field:
		// a stale client gets the bad-frame answer, not a request
		// decoded from shifted fields.
		{"engine field", append(binary.AppendUvarint(nil, uint64(len(engineLayoutBody))), engineLayoutBody...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			svc := New(Config{Workers: 1})
			srv := NewServer(svc)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			serveErr := make(chan error, 1)
			go func() { serveErr <- srv.Serve(ln) }()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(conn)
			resp, err := ReadResponse(br)
			if err != nil {
				t.Fatalf("no bad-frame response: %v", err)
			}
			if resp.ID != BadFrameID || resp.Status != StatusInvalid {
				t.Fatalf("bad frame answered with id=%d status=%v, want id=%d status=invalid",
					resp.ID, resp.Status, BadFrameID)
			}
			if !strings.Contains(resp.Detail, "malformed request frame") {
				t.Errorf("detail %q does not carry the documented code", resp.Detail)
			}
			// Past the bad-frame response the server hangs up.
			if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
				t.Errorf("connection still open after bad frame: %v", err)
			}
			if got := svc.Metrics().Get("service/frames/bad"); got != 1 {
				t.Errorf("service/frames/bad = %d, want 1", got)
			}
			srv.Shutdown()
			if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
				t.Errorf("Serve returned %v", err)
			}
			assertNoLeaks(t, before)
		})
	}
}

// TestFaultOversizedResponse: a WantTrace request whose response frame
// would exceed MaxFrameBytes (mst/randomized on a random graph with
// n=256, seed 1, a 9,924,655-byte frame) still gets exactly one
// response — StatusInternal, naming the frame size and the cap — and
// the status counters record the status that was sent. The frame size
// is computed before the trace is rendered, so the detail pins it to
// the byte.
func TestFaultOversizedResponse(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 1})
	srv := NewServer(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := Request{ID: 7, Problem: "mst/randomized", Graph: "random", N: 256, Seed: 1, WantTrace: true}
	if err := WriteRequest(conn, req); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	br := bufio.NewReader(conn)
	resp, err := ReadResponse(br)
	if err != nil {
		t.Fatalf("oversized response never answered: %v", err)
	}
	if resp.ID != req.ID || resp.Status != StatusInternal {
		t.Fatalf("answered id=%d status=%v (%s), want %d/internal", resp.ID, resp.Status, resp.Detail, req.ID)
	}
	var size int
	if _, err := fmt.Sscanf(resp.Detail, "response frame is %d bytes", &size); err != nil || size <= MaxFrameBytes {
		t.Errorf("detail %q does not name a frame size over the cap (%v)", resp.Detail, err)
	}
	if !strings.Contains(resp.Detail, strconv.Itoa(MaxFrameBytes)) {
		t.Errorf("detail %q does not name the %d-byte cap", resp.Detail, MaxFrameBytes)
	}
	const wantDetail = "response frame is 9924655 bytes, over the 8388608-byte MaxFrameBytes cap"
	if resp.Detail != wantDetail {
		t.Errorf("detail = %q, want %q", resp.Detail, wantDetail)
	}
	// Exactly one response: nothing else arrives before the deadline.
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, err := br.ReadByte(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("read after the only response returned %v, want the deadline", err)
	}
	for status, want := range map[Status]int64{StatusInternal: 1, StatusOK: 0} {
		if got := svc.Metrics().Get(metrics.ServiceStatusName(status.String())); got != want {
			t.Errorf("service/status/%v = %d, want %d", status, got, want)
		}
	}
	srv.Shutdown()
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v", err)
	}
	assertNoLeaks(t, before)
}

// TestFaultEdgeCap: BuildGraph cannot be canceled, so admission bounds
// the edge count a request asks for at 16·MaxN before anything is
// built. A random request with a huge m and a complete graph at MaxN
// (each once seconds and gigabytes of graph build) are answered
// invalid at once, with the count and the cap in the detail.
func TestFaultEdgeCap(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Drain()
	for _, req := range []Request{
		{ID: 1, Problem: "mst/randomized", Graph: "random", N: 4096, M: 1 << 40},
		{ID: 2, Problem: "mst/randomized", Graph: "complete", N: 4096},
	} {
		start := time.Now()
		resp := svc.Submit(req)
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: answered after %v, want well under a second", req.Graph, took)
		}
		if resp.Status != StatusInvalid {
			t.Fatalf("%s: status %v (%s), want invalid", req.Graph, resp.Status, resp.Detail)
		}
		want := req.Graph + " graph asks for 8386560 edges, over the admitted edge cap 65536"
		if resp.Detail != want {
			t.Errorf("detail = %q, want %q", resp.Detail, want)
		}
	}
	if got := svc.Metrics().Get("service/status/invalid"); got != 2 {
		t.Errorf("service/status/invalid = %d, want 2", got)
	}
}

// mustFrame encodes a protocol message frame for test input.
func mustFrame(msg interface{}) []byte {
	buf, err := appendFrame(nil, msg)
	if err != nil {
		panic(err)
	}
	return buf
}

// TestFaultShutdownDrain: a drain beginning while a request is
// running lets it finish and delivers its response, rejects new
// requests with StatusShuttingDown, and leaves no goroutines behind —
// the mechanism behind the daemon's SIGTERM handling.
func TestFaultShutdownDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{Workers: 1, QueueDepth: 1})
	srv := NewServer(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A request slow enough to still be running when the drain starts.
	if err := WriteRequest(conn, Request{ID: 50, Problem: "mst/randomized", Graph: "random", N: 512, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let it be admitted
	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()

	br := bufio.NewReader(conn)
	resp, err := ReadResponse(br)
	if err != nil {
		t.Fatalf("in-flight response lost in drain: %v", err)
	}
	if resp.ID != 50 || resp.Status != StatusOK {
		t.Fatalf("in-flight request answered id=%d status=%v (%s), want 50/ok", resp.ID, resp.Status, resp.Detail)
	}
	<-done
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}

	// Post-drain submissions get the documented rejection.
	late := svc.Submit(Request{ID: 51, Problem: "mis", Graph: "ring", N: 8})
	if late.Status != StatusShuttingDown {
		t.Errorf("post-drain submit: status %v, want shutting-down", late.Status)
	}
	if got := svc.Metrics().Get("service/status/shutting-down"); got != 1 {
		t.Errorf("service/status/shutting-down = %d, want 1", got)
	}
	assertNoLeaks(t, before)
}
