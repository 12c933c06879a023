package sim

import "fmt"

// Engine selects the scheduler implementation executing a run. Every
// user-facing run uses EngineEvent; EngineGoroutine is selected only
// by the differential harness (enginediff tests), which proves the two
// equivalent: on a fixed (graph, seed, program, chaos policy) tuple
// they produce byte-identical traces, verdicts, and metrics.
type Engine int

const (
	// EngineEvent is the default: a goroutine-free scheduler core that
	// runs node programs as coroutines on the scheduler's own thread
	// (iter.Pull continuations, no channel handshakes), visits only
	// awake nodes via the typed wake heap, and keeps its bookkeeping in
	// struct-of-arrays form. This is the engine that reaches n = 10^5
	// to 10^6 on one machine.
	EngineEvent Engine = iota
	// EngineGoroutine is the legacy scheduler: one goroutine per node
	// with channel handshakes per awake round. Kept compiled only as
	// the differential-testing reference; it tops out around n ≈ 10^4
	// (goroutine stacks and scheduler latency dominate).
	EngineGoroutine
)

// String returns the engine's name.
func (e Engine) String() string {
	switch e {
	case EngineEvent:
		return "event"
	case EngineGoroutine:
		return "goroutine"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// valid reports whether e names a compiled engine.
func (e Engine) valid() bool { return e == EngineEvent || e == EngineGoroutine }
