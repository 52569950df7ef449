package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrRankLost is the sentinel for a peer that stopped responding: a
// point-to-point deadline expired or the peer's connection failed.
// A Comm keeps the first one as its sticky error (Comm.Err); callers must
// test with errors.Is and may then run Comm.Heal to agree on the dead set
// and continue on the survivors.
var ErrRankLost = errors.New("mpi: rank lost")

// LostError reports which rank was given up on and during which
// operation. It unwraps to ErrRankLost.
type LostError struct {
	Rank int    // the rank this endpoint gave up on
	Tag  int    // tag of the failed operation (0 for connection-level loss)
	Op   string // "send", "recv" or "conn"
}

func (e *LostError) Error() string {
	return fmt.Sprintf("mpi: rank %d lost (%s, tag %d)", e.Rank, e.Op, e.Tag)
}

// Unwrap makes errors.Is(err, ErrRankLost) hold for every LostError.
func (e *LostError) Unwrap() error { return ErrRankLost }

// Transport is the wire under the collectives: point-to-point tagged
// send/recv between a fixed set of ranks. Implementations must be safe
// for concurrent use by multiple goroutines of the same rank and must
// match messages per (source, tag) pair in FIFO order, buffering
// arrivals whose tag nobody is waiting for yet.
//
// A zero deadline means "wait forever". A nil error from Send only
// promises the payload was accepted for delivery, not that the peer
// received it; delivery failures surface on the peer's Recv (or on a
// later Send) as an error satisfying errors.Is(err, ErrRankLost).
//
// Payloads are owned by the transport once sent: implementations must
// deep-copy (or serialize) on send so the caller may immediately reuse
// its buffer, and the slice returned by Recv is freshly owned by the
// caller.
type Transport interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the group.
	Size() int
	// Send transmits data to rank dst under tag. Sending to self panics.
	Send(dst, tag int, data []float64, deadline time.Time) error
	// Recv returns the next payload from rank src under tag.
	Recv(src, tag int, deadline time.Time) ([]float64, error)
	// Close releases the endpoint. Peers observe closure as rank loss.
	Close() error
}

// pairKey indexes the matcher queues by (source rank, tag).
type pairKey struct{ src, tag int }

// matcher is the shared receive-side state of a transport endpoint:
// per-(src, tag) FIFO queues, a broadcast wake channel, and the set of
// peers known dead. Both the in-process mailbox and the TCP reader
// goroutines deposit into a matcher; Recv blocks on it with an optional
// deadline.
type matcher struct {
	mu     sync.Mutex
	queues map[pairKey][][]float64
	wake   chan struct{} // closed and replaced on every state change
	dead   map[int]error
	closed error // non-nil once the endpoint is closed
}

func newMatcher() *matcher {
	return &matcher{
		queues: make(map[pairKey][][]float64),
		wake:   make(chan struct{}),
		dead:   make(map[int]error),
	}
}

// signal wakes every blocked recv; callers hold mu.
func (m *matcher) signal() {
	close(m.wake)
	m.wake = make(chan struct{})
}

// deposit appends a payload (ownership transfers to the matcher).
func (m *matcher) deposit(src, tag int, data []float64) {
	k := pairKey{src, tag}
	m.mu.Lock()
	m.queues[k] = append(m.queues[k], data)
	m.signal()
	m.mu.Unlock()
}

// markDead records that src will never deposit again; pending and future
// recvs from src fail with err once their queue drains.
func (m *matcher) markDead(src int, err error) {
	m.mu.Lock()
	if _, ok := m.dead[src]; !ok {
		m.dead[src] = err
		m.signal()
	}
	m.mu.Unlock()
}

// closedErr returns the close error, or nil while the endpoint is open.
func (m *matcher) closedErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// close fails every pending and future recv with err.
func (m *matcher) close(err error) {
	m.mu.Lock()
	if m.closed == nil {
		m.closed = err
		m.signal()
	}
	m.mu.Unlock()
}

// recv blocks until a payload from (src, tag) is available, src is known
// dead, the matcher is closed, or the deadline passes (zero = never).
func (m *matcher) recv(src, tag int, deadline time.Time) ([]float64, error) {
	var timeout <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		timeout = timer.C
	}
	k := pairKey{src, tag}
	for {
		m.mu.Lock()
		if q := m.queues[k]; len(q) > 0 {
			data := q[0]
			if len(q) == 1 {
				delete(m.queues, k)
			} else {
				m.queues[k] = q[1:]
			}
			m.mu.Unlock()
			return data, nil
		}
		if err := m.dead[src]; err != nil {
			m.mu.Unlock()
			return nil, err
		}
		if m.closed != nil {
			err := m.closed
			m.mu.Unlock()
			return nil, err
		}
		wake := m.wake
		m.mu.Unlock()
		select {
		case <-wake:
		case <-timeout:
			return nil, &LostError{Rank: src, Tag: tag, Op: "recv"}
		}
	}
}
