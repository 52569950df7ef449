// Package server is the selection-as-a-service layer: a long-lived HTTP
// server multiplexing many tenant active-learning sessions over the shared
// worker pool. Each session registers an unlabeled pool (shard-path
// reference or inline CSV upload), accumulates labels through an ongoing
// labeled/unlabeled dialogue, and runs asynchronous train+select rounds
// whose RELAX state is periodically checkpointed so an interrupted solve
// resumes — bit-for-bit — after a crash or restart. An admission layer
// bounds concurrent rounds with a FIFO queue and sheds load past a
// configurable depth, so overload degrades into backpressure instead of
// thrashing the worker pool. The worker count is the process's
// (GOMAXPROCS in firald); sessions share it and carry none of their own.
// See ARCHITECTURE.md § Service layer.
package server

import (
	"context"
	"errors"
	"sync"
)

// ErrSaturated is returned by Admission.Admit when the concurrency slots
// and the waiting queue are both full; handlers map it to 429.
var ErrSaturated = errors.New("server: all round slots busy and admission queue full")

// Admission bounds the number of selection rounds in flight. At most
// `capacity` rounds run concurrently; up to `depth` more wait in FIFO
// order; beyond that Admit refuses, which the HTTP layer surfaces as
// backpressure (429). Invariants:
//
//   - running ≤ capacity at all times.
//   - Tickets are granted strictly in Admit order (FIFO): a later arrival
//     never runs before an earlier one that is still waiting.
//   - A released or abandoned ticket (context cancelled while queued)
//     frees its slot/queue position exactly once; Release is idempotent.
//   - force admission (crash recovery) may exceed depth but never
//     capacity: recovered rounds must not be dropped, yet still must not
//     thrash the worker pool.
type Admission struct {
	mu       sync.Mutex
	capacity int
	depth    int
	running  int
	queue    []*Ticket
}

// NewAdmission builds an admission controller with `capacity` concurrent
// slots and a waiting queue of `depth` (minimums 1 and 0).
func NewAdmission(capacity, depth int) *Admission {
	if capacity < 1 {
		capacity = 1
	}
	if depth < 0 {
		depth = 0
	}
	return &Admission{capacity: capacity, depth: depth}
}

// Ticket is one admitted-or-waiting round. Wait blocks until the ticket
// holds a running slot; Release returns the slot (or abandons the queue
// position) and promotes the next waiter.
type Ticket struct {
	a        *Admission
	ready    chan struct{} // closed when a running slot is granted
	admitted bool          // guarded by a.mu
	released bool          // guarded by a.mu
}

// Admit requests a round slot. It never blocks: the return is either a
// ticket already holding a slot (position 0), a queued ticket with its
// 1-based FIFO position, or ErrSaturated. With force set, the depth bound
// is waived (the capacity bound never is) — used when re-enqueueing
// checkpointed rounds at startup, which must not be shed.
func (a *Admission) Admit(force bool) (*Ticket, int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := &Ticket{a: a, ready: make(chan struct{})}
	if a.running < a.capacity && len(a.queue) == 0 {
		a.running++
		t.admitted = true
		close(t.ready)
		return t, 0, nil
	}
	if !force && len(a.queue) >= a.depth {
		return nil, 0, ErrSaturated
	}
	a.queue = append(a.queue, t)
	return t, len(a.queue), nil
}

// Wait blocks until the ticket is granted a running slot or ctx is done.
// On cancellation the ticket is released (queue position abandoned, or
// slot returned if the grant raced the cancellation) and ctx.Err() is
// returned.
func (t *Ticket) Wait(ctx context.Context) error {
	select {
	case <-t.ready:
		return nil
	case <-ctx.Done():
		t.Release()
		return ctx.Err()
	}
}

// Release frees the ticket's slot or queue position and promotes the next
// waiter. Idempotent; safe to defer alongside an explicit error-path call.
func (t *Ticket) Release() {
	a := t.a
	a.mu.Lock()
	defer a.mu.Unlock()
	if t.released {
		return
	}
	t.released = true
	if t.admitted {
		a.running--
		a.promoteLocked()
		return
	}
	for i, q := range a.queue {
		if q == t {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			break
		}
	}
}

// promoteLocked grants slots to the head of the queue while capacity
// allows. Caller holds a.mu.
func (a *Admission) promoteLocked() {
	for a.running < a.capacity && len(a.queue) > 0 {
		t := a.queue[0]
		a.queue = a.queue[1:]
		a.running++
		t.admitted = true
		close(t.ready)
	}
}

// Position reports the ticket's place: 0 when it holds a running slot,
// otherwise its 1-based FIFO position in the waiting queue.
func (t *Ticket) Position() int {
	t.a.mu.Lock()
	defer t.a.mu.Unlock()
	if t.admitted {
		return 0
	}
	for i, q := range t.a.queue {
		if q == t {
			return i + 1
		}
	}
	return 0
}

// Stats reports the number of running and queued rounds.
func (a *Admission) Stats() (running, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.running, len(a.queue)
}
