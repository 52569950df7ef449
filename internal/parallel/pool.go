package parallel

import (
	"sync"
	"sync/atomic"
)

// The persistent worker pool. Before it existed, every For/ForChunk call
// forked O(workers) fresh goroutines, whose spawn cost and closure
// captures were the dominant transient-allocation source on multicore once
// the kernels themselves reached 0 allocs/op. The pool keeps long-lived
// workers parked on private channels; a dispatch hands each claimed worker
// the shared job, so a steady-state kernel call forks zero goroutines and
// allocates nothing (job records are recycled through a FreeList).
//
// Dispatch protocol:
//
//   - The caller always participates in its own job, so dispatch never
//     waits for a free worker and nested parallel calls cannot deadlock:
//     a dispatch that finds no idle workers simply runs serially.
//   - The participants of a job share one chunkJob and claim contiguous
//     [lo, hi) ranges with an atomic cursor; work is self-balancing
//     across however many helpers actually joined.
//   - A participant re-enqueues its worker on the idle list *before*
//     decrementing the job's exit counter, so the worker is reclaimable
//     immediately; the job itself is only recycled after the last
//     participant's decrement, which the caller observes via the job's
//     buffered done channel.
//
// Sizing: the pool grows on demand up to Workers() (GOMAXPROCS, or
// the SetMaxWorkers override) and retires surplus workers as they go
// idle after the target shrinks.
type pool struct {
	mu   sync.Mutex
	idle []*worker
	live int
}

// worker is one parked pool goroutine. Its wake channel has capacity 1
// and only ever receives while the worker is off the idle list, so sends
// never block (and may legally happen while the pool lock is held).
type worker struct {
	wake chan *chunkJob
}

// chunkJob is the shared state of one ForChunk dispatch. Participants
// (the caller plus every claimed helper) claim chunks via the atomic
// cursor until the range is exhausted, then decrement exits; the last
// one out signals done. The done channel is buffered and owned by the
// job for its pooled lifetime, so signalling never blocks.
type chunkJob struct {
	fn    func(lo, hi int)
	n     int
	chunk int
	next  atomic.Int64
	exits atomic.Int64
	done  chan struct{}
}

var chunkJobPool = FreeList[chunkJob]{New: func() *chunkJob {
	return &chunkJob{done: make(chan struct{}, 1)}
}}

// run claims and executes chunks until none remain.
func (j *chunkJob) run() {
	n, chunk := j.n, j.chunk
	for {
		hi := int(j.next.Add(int64(chunk)))
		lo := hi - chunk
		if lo >= n {
			return
		}
		if hi > n {
			hi = n
		}
		j.fn(lo, hi)
	}
}

// exit records one participant leaving; the last signals the waiter.
func (j *chunkJob) exit() {
	if j.exits.Add(-1) == 0 {
		j.done <- struct{}{}
	}
}

var defaultPool pool

// claim hands the job to up to max workers, popping idle ones and
// spawning fresh pool workers only while the pool is below its size
// target. It returns the number of workers claimed.
func (p *pool) claim(j *chunkJob, max int) int {
	if max <= 0 {
		return 0
	}
	base := Workers()
	p.mu.Lock()
	h := 0
	for h < max {
		var w *worker
		if k := len(p.idle); k > 0 {
			w = p.idle[k-1]
			p.idle[k-1] = nil
			p.idle = p.idle[:k-1]
		} else if p.live < base {
			w = &worker{wake: make(chan *chunkJob, 1)}
			p.live++
			go p.run(w)
		} else {
			break
		}
		w.wake <- j
		h++
	}
	p.mu.Unlock()
	return h
}

// putIdle re-enqueues a worker, or retires it when the pool has shrunk
// below its current population. It reports whether the worker stays
// alive.
func (p *pool) putIdle(w *worker) bool {
	p.mu.Lock()
	if p.live > Workers() {
		p.live--
		p.mu.Unlock()
		close(w.wake)
		return false
	}
	p.idle = append(p.idle, w)
	p.mu.Unlock()
	return true
}

// run is the worker loop: run its share of one job, park again. The
// worker goes back on the idle list before the job's exit bookkeeping so
// it is reclaimable immediately; a new job then simply waits in the
// buffered wake channel until the loop comes around.
func (p *pool) run(w *worker) {
	for j := range w.wake {
		j.run()
		alive := p.putIdle(w)
		j.exit()
		if !alive {
			return
		}
	}
}

// resize spawns workers up to the current base target so that a grown
// SetMaxWorkers takes effect immediately rather than at the next
// dispatch. Shrinking happens lazily as busy workers go idle.
func (p *pool) resize() {
	base := Workers()
	p.mu.Lock()
	for p.live < base {
		w := &worker{wake: make(chan *chunkJob, 1)}
		p.live++
		p.idle = append(p.idle, w)
		go p.run(w)
	}
	p.mu.Unlock()
}
