package transport

import "fmt"

// Inproc is the in-process reference backend: per-node frame queues
// standing in for sockets. Frames still carry codec-encoded payloads,
// so a run over Inproc exercises the exact wire representation TCP
// ships — which is what lets the differential suite certify the codec
// against the transportless simulator byte-for-byte, and the TCP
// backend against Inproc.
//
// Inproc is single-goroutine: every method, TransportStats included,
// runs on the goroutine that drives the run (the Transport contract
// already puts Send and Recv there), so it takes no lock. Nothing can
// fill an empty queue while its receiver waits, so Recv never blocks:
// an empty queue returns ErrTimeout at once.
type Inproc struct {
	n      int
	queues []inprocQueue
	closed bool
	stats  Stats
}

// NewInproc returns an in-process backend; call Listen before use.
func NewInproc() *Inproc { return &Inproc{} }

// inprocQueue is one receiver's FIFO: buf[head:] are the unread
// frames. The backing array is reused once the queue drains, so it
// holds at most the frames one round left unread.
type inprocQueue struct {
	buf  []Frame
	head int
}

func (q *inprocQueue) push(f Frame) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Full but partly read: slide the unread frames down instead
		// of growing.
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, f)
}

func (q *inprocQueue) pop() (Frame, bool) {
	if q.head == len(q.buf) {
		return Frame{}, false
	}
	f := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return f, true
}

// Listen brings up the n node queues.
func (t *Inproc) Listen(n int) error {
	if t.n > 0 {
		return fmt.Errorf("transport: inproc backend already listening on %d nodes", t.n)
	}
	if n <= 0 {
		return fmt.Errorf("transport: inproc backend needs n > 0, got %d", n)
	}
	t.n = n
	t.queues = make([]inprocQueue, n)
	return nil
}

// inprocLink delivers frames straight into the destination queue.
type inprocLink struct {
	t  *Inproc
	to int
}

// Send enqueues the frame at the destination endpoint.
func (l *inprocLink) Send(f Frame) error {
	if l.t.closed {
		return ErrClosed
	}
	l.t.stats.FramesSent++
	l.t.stats.WireBytes += FrameWireBytes(f)
	l.t.queues[l.to].push(f)
	return nil
}

// Dial returns the from->to link.
func (t *Inproc) Dial(from, to int) (Link, error) {
	if err := checkNode("dialing", from, t.n); err != nil {
		return nil, err
	}
	if err := checkNode("dialed", to, t.n); err != nil {
		return nil, err
	}
	t.stats.Dials++
	return &inprocLink{t: t, to: to}, nil
}

// Recv pops the next frame queued at node to, or returns ErrTimeout
// (wrapped) at once if there is none.
func (t *Inproc) Recv(to int) (Frame, error) {
	if t.closed {
		return Frame{}, ErrClosed
	}
	if err := checkNode("receiving", to, t.n); err != nil {
		return Frame{}, err
	}
	f, ok := t.queues[to].pop()
	if !ok {
		return Frame{}, fmt.Errorf("transport: inproc node %d has no frame queued: %w", to, ErrTimeout)
	}
	t.stats.FramesRecv++
	return f, nil
}

// Close drops the queues; later Send and Recv calls return ErrClosed.
func (t *Inproc) Close() error {
	t.closed = true
	t.queues = nil
	return nil
}

// TransportStats returns the wire accounting snapshot.
func (t *Inproc) TransportStats() Stats { return t.stats }
