package problem_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"sleepmst/internal/chaos"
	"sleepmst/internal/conform"
	"sleepmst/internal/core"
	"sleepmst/internal/graph"
	"sleepmst/internal/metrics"
	"sleepmst/internal/problem"
	"sleepmst/internal/trace"
	"sleepmst/internal/transport"
)

// The transport differential harness: the wire layer's correctness
// proof, in the image of the engine harness above. For every cell the
// same (graph, seed, problem) tuple runs three ways — without a
// transport, over the in-process backend, and over real TCP sockets —
// and the full observable surface must agree byte-for-byte: the
// in-memory run pins the model semantics, the Inproc run proves the
// codec round-trips every message type faithfully, and the TCP run
// proves the socket backend adds nothing but wire.

// runCellOpts executes one cell with the full observability surface
// enabled, after applying mut to the base options.
func runCellOpts(t *testing.T, p problem.Problem, g *graph.Graph, mut func(*core.Options)) engineRun {
	t.Helper()
	rec := trace.NewRecorder(1 << 15)
	reg := metrics.New()
	opts := core.Options{
		Seed:              1,
		RecordAwakeRounds: true,
		Trace:             rec,
		Metrics:           reg,
	}
	mut(&opts)
	r, err := p.Run(g, opts)

	var tr bytes.Buffer
	if werr := rec.WriteJSONL(&tr); werr != nil {
		t.Fatalf("%s: write trace: %v", p.Name(), werr)
	}
	suite := conform.Suite{
		Info:   conform.RunInfo{Algorithm: p.Name(), N: g.N(), Seed: 1, Budget: p.Budget},
		Meta:   rec.Meta(),
		Events: rec.Events(),
	}
	if r != nil {
		suite.Extra = []conform.Check{p.ConformCheck(g, r)}
	}
	var vj bytes.Buffer
	if werr := suite.Verdict().WriteJSON(&vj); werr != nil {
		t.Fatalf("%s: write verdict: %v", p.Name(), werr)
	}
	out := engineRun{
		trace:   tr.Bytes(),
		verdict: vj.Bytes(),
		metrics: reg.String(),
		result:  r,
		err:     err,
	}
	if r != nil {
		out.sim = r.Sim
	}
	return out
}

// runTxCell executes one cell with the full observability surface,
// carrying deliveries over tx (nil = the plain in-memory path).
func runTxCell(t *testing.T, p problem.Problem, g *graph.Graph, tx transport.Transport, withChaos bool) engineRun {
	t.Helper()
	if tx != nil {
		defer tx.Close()
	}
	return runCellOpts(t, p, g, func(opts *core.Options) {
		opts.Transport = tx
		if withChaos {
			opts.Interceptor = diffChaos(7)
		}
	})
}

// diffTxCompare asserts two runs of one cell agree on every
// deterministic surface.
func diffTxCompare(t *testing.T, labelA, labelB string, a, b engineRun) {
	t.Helper()
	if !bytes.Equal(a.trace, b.trace) {
		t.Errorf("%s vs %s: trace JSONL diverges:\n%s", labelA, labelB, firstLineDiff(a.trace, b.trace))
	}
	if !bytes.Equal(a.verdict, b.verdict) {
		t.Errorf("%s vs %s: conform verdict diverges:\n%s", labelA, labelB, firstLineDiff(a.verdict, b.verdict))
	}
	if a.metrics != b.metrics {
		t.Errorf("%s vs %s: metrics diverge:\n%s:\n%s\n%s:\n%s", labelA, labelB, labelA, a.metrics, labelB, b.metrics)
	}
	if (a.err == nil) != (b.err == nil) {
		t.Errorf("%s vs %s: error presence diverges: %v vs %v", labelA, labelB, a.err, b.err)
	}
	if a.sim != nil && b.sim != nil && !reflect.DeepEqual(a.sim, b.sim) {
		t.Errorf("%s vs %s: sim.Result diverges:\n%s: %+v\n%s: %+v", labelA, labelB, labelA, a.sim, labelB, b.sim)
	}
}

// TestTransportDifferential sweeps the headline problems across sizes,
// clean and under chaos (chaos exercises delayed-copy frames, whose
// FIFO replay order must survive the wire).
func TestTransportDifferential(t *testing.T) {
	for _, name := range []string{"mst/randomized", "mis"} {
		p, err := problem.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{4, 16, 64} {
			for _, withChaos := range []bool{false, true} {
				mode := "clean"
				if withChaos {
					mode = "chaos"
				}
				t.Run(fmt.Sprintf("%s/n=%d/%s", name, n, mode), func(t *testing.T) {
					if testing.Short() && n > 16 {
						t.Skip("large cell skipped in -short")
					}
					// Sparse graphs: each undirected edge costs two TCP
					// connections, so the cell stays far inside the fd
					// budget.
					g := graph.RandomConnected(n, 2*n, graph.GenConfig{Seed: int64(n)})
					plain := runTxCell(t, p, g, nil, withChaos)
					inproc := runTxCell(t, p, g, transport.NewInproc(), withChaos)
					tcp := runTxCell(t, p, g, transport.NewTCP(transport.TCPConfig{}), withChaos)
					diffTxCompare(t, "plain", "inproc", plain, inproc)
					diffTxCompare(t, "inproc", "tcp", inproc, tcp)
				})
			}
		}
	}
}

// TestTransportAllProblems runs every registered problem over both
// backends at a small size — the codec-coverage sweep: any message
// type a problem ships that lacks a codec, or round-trips inexactly,
// fails its cell here.
func TestTransportAllProblems(t *testing.T) {
	for _, name := range problem.Names() {
		p, err := problem.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			g := graph.RandomConnected(8, 16, graph.GenConfig{Seed: 8})
			plain := runTxCell(t, p, g, nil, false)
			inproc := runTxCell(t, p, g, transport.NewInproc(), false)
			tcp := runTxCell(t, p, g, transport.NewTCP(transport.TCPConfig{}), false)
			if plain.err != nil {
				t.Fatalf("plain run failed: %v", plain.err)
			}
			diffTxCompare(t, "plain", "inproc", plain, inproc)
			diffTxCompare(t, "inproc", "tcp", inproc, tcp)
		})
	}
}

// dupTransport wraps a backend to act like the worst legal
// at-least-once wire: every frame is shipped twice, and the first
// send of each new round re-ships the link's previous frame — a
// retransmission surfacing after its round already drained. The
// simulator's drain must filter both duplicate kinds (same-round by
// frame coordinates, stale by round), so a run over this wire stays
// byte-identical to the plain in-memory run.
type dupTransport struct {
	transport.Transport
}

func (d dupTransport) Dial(from, to int) (transport.Link, error) {
	l, err := d.Transport.Dial(from, to)
	if err != nil {
		return nil, err
	}
	return &dupLink{inner: l}, nil
}

type dupLink struct {
	inner transport.Link
	last  transport.Frame
	has   bool
}

func (l *dupLink) Send(f transport.Frame) error {
	if l.has && l.last.Round < f.Round {
		// Stale duplicate: the original was drained last round.
		if err := l.inner.Send(l.last); err != nil {
			return err
		}
	}
	l.last, l.has = f, true
	if err := l.inner.Send(f); err != nil {
		return err
	}
	// Same-round duplicate of every frame.
	return l.inner.Send(f)
}

// reverseTransport hands each receiver's frames out last-first:
// whenever its buffer for a node is empty, Recv pulls every frame the
// wrapped backend holds for the node and serves them in reverse.
// Over Inproc, which queues a round's frames before the drain starts
// and answers an empty queue at once, that reverses each round's
// frames, duplicates included — the drain must sort, keep one copy of
// each send whatever its arrival position, and never decode a stale
// duplicate held over from a drained round.
type reverseTransport struct {
	transport.Transport
	held [][]transport.Frame
}

func (r *reverseTransport) Listen(n int) error {
	r.held = make([][]transport.Frame, n)
	return r.Transport.Listen(n)
}

func (r *reverseTransport) Recv(to int) (transport.Frame, error) {
	if len(r.held[to]) == 0 {
		for {
			f, err := r.Transport.Recv(to)
			if err != nil {
				if len(r.held[to]) == 0 {
					return f, err
				}
				break
			}
			r.held[to] = append(r.held[to], f)
		}
		slices.Reverse(r.held[to])
	}
	f := r.held[to][0]
	r.held[to] = r.held[to][1:]
	return f, nil
}

// TestTransportDuplicateDelivery pins the receiver-side dedup: TCP
// redial-and-resend can deliver a frame twice (a send error does not
// prove loss), and the drain must not let a duplicate displace a real
// frame or abort a later round as a stray. The delays mode adds a
// delay/dup interceptor to produce Seq > 0 delayed-copy frames, so
// their dedup key is exercised too; like the chaos cells of the main
// sweep, that mode only demands byte-identical behavior (chaos may
// legitimately break the algorithm, but it must break both runs
// identically — before the dedup fix the dup wire aborted with
// "drained stray frame" errors the plain run never produced). Each
// cell runs the dup wire twice: in arrival order, and with every
// round's frames reversed (reverseTransport), which takes the drain
// off its already-sorted fast path.
func TestTransportDuplicateDelivery(t *testing.T) {
	for _, name := range []string{"mst/randomized", "mis"} {
		p, err := problem.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, withDelays := range []bool{false, true} {
			mode := "clean"
			if withDelays {
				mode = "delays"
			}
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				g := graph.RandomConnected(16, 32, graph.GenConfig{Seed: 16})
				run := func(tx transport.Transport) engineRun {
					if tx != nil {
						defer tx.Close()
					}
					return runCellOpts(t, p, g, func(opts *core.Options) {
						opts.Transport = tx
						if withDelays {
							opts.Interceptor = chaos.New(chaos.Options{Seed: 7, DelayRate: 0.15, DupRate: 0.05})
						}
					})
				}
				plain := run(nil)
				dup := run(dupTransport{transport.NewInproc()})
				reversed := run(dupTransport{&reverseTransport{Transport: transport.NewInproc()}})
				if !withDelays && plain.err != nil {
					t.Fatalf("plain run failed: %v", plain.err)
				}
				diffTxCompare(t, "plain", "dup-wire", plain, dup)
				diffTxCompare(t, "plain", "reversed-dup-wire", plain, reversed)
			})
		}
	}
}

// TestTransportFaultInjection runs MST over TCP with injected wire
// drops and delays. The retry budget must mask every injected drop,
// so the run still produces a correct MST — transport faults below
// the model leave the sleeping-model semantics untouched.
func TestTransportFaultInjection(t *testing.T) {
	p, err := problem.Lookup("mst/randomized")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.RandomConnected(32, 64, graph.GenConfig{Seed: 32})
	tx := transport.WithFaults(transport.NewTCP(transport.TCPConfig{}), transport.FaultConfig{
		Seed:      3,
		DropProb:  0.05,
		DelayProb: 0.05,
		MaxDelay:  500 * time.Microsecond,
		Retries:   8,
	})
	faulty := runTxCell(t, p, g, tx, false)
	if faulty.err != nil {
		t.Fatalf("faulty run failed: %v", faulty.err)
	}
	if err := p.Verify(g, faulty.result); err != nil {
		t.Fatalf("faulty run produced incorrect output: %v", err)
	}
	s := tx.TransportStats()
	if s.InjectedDrops == 0 && s.InjectedDelays == 0 {
		t.Fatalf("fault injector idle: stats %+v", s)
	}
	clean := runTxCell(t, p, g, nil, false)
	diffTxCompare(t, "clean", "faulty-tcp", clean, faulty)
}
