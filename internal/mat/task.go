package mat

import "repro/internal/parallel"

// Kernel task pools: the allocation-free bridge between the mat kernels
// and the persistent worker pool of internal/parallel.
//
// A closure literal at a parallel call site captures the kernel operands
// and is therefore heap-allocated on every call — one object per kernel
// invocation, which the repeated full-pool sweeps of a FIRAL round turn
// into the last remaining steady-state allocation source on multicore.
// Instead, each parallel kernel keeps a FreeList of kernelTask records
// whose dispatch func was built once, closing over the record itself;
// a call checks out a record, fills in the operand slots, hands the
// pre-built func to parallel.ForChunk/ForChunkMin, and clears the slots
// on return. Steady state: zero allocations and zero goroutine forks.
type kernelTask struct {
	m1, m2, m3     *Dense
	v1, v2         []float64
	i1, i2, i3, i4 int
	b1             bool

	// fn is bound to this record at pool-New time.
	fn func(lo, hi int)
}

// release clears every reference slot (so pooled records don't pin
// operand memory) and returns the record to its pool.
func (t *kernelTask) release(p *taskPool) {
	t.m1, t.m2, t.m3 = nil, nil, nil
	t.v1, t.v2 = nil, nil
	p.Put(t)
}

// taskPool recycles one kernel's task records.
type taskPool = parallel.FreeList[kernelTask]

// newChunkTaskPool builds a pool of records whose fn runs body over the
// record's operand slots.
func newChunkTaskPool(body func(t *kernelTask, lo, hi int)) *taskPool {
	p := &taskPool{}
	p.New = func() *kernelTask {
		t := &kernelTask{}
		t.fn = func(lo, hi int) { body(t, lo, hi) }
		return t
	}
	return p
}
