// Package compute is the handle that remains of the deleted compute
// plane (DESIGN.md §5, "Removed: compute plane"): every crypto, erasure
// and execution kernel runs inline on the simnet event loop, and nothing
// under internal/ reads a pool. The names below are held for the
// benchmark — cmd/predis-perf is frozen outside a benchmark PR and still
// passes a pool through simnet.Config.Compute, reads it back through its
// span decorator and hands one to exec.Machine.ExecuteBlock — and are
// deleted with compute.offload_speedup in the next benchmark-only PR.
package compute

// Pool does nothing. A nil *Pool is valid.
type Pool struct{}

// NewPool returns a pool handle, or nil for workers <= 0.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		return nil
	}
	return &Pool{}
}

// Close does nothing, any number of times, on any pool including nil.
func (p *Pool) Close() {}

// PoolProvider is implemented by contexts that carry a pool handle
// (simnet's per-node env.Context, the benchmark's span decorator).
type PoolProvider interface {
	ComputePool() *Pool
}

// PoolOf returns the handle v carries, or nil when v carries none.
func PoolOf(v any) *Pool {
	if pp, ok := v.(PoolProvider); ok {
		return pp.ComputePool()
	}
	return nil
}
