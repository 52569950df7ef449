// Package mpi is a message-passing runtime that stands in for the
// paper's GPU-aware MPI (mpi4py over MVAPICH2-GDR, § III-C). Each rank
// runs with a private data partition; ranks exchange data only through
// explicit messages, which are deep-copied on send so no memory is
// shared. The collectives implement the same algorithms the paper's cost
// model assumes (Thakur et al. [17]): binomial-tree broadcast,
// recursive-doubling allreduce/allgather for power-of-two rank counts,
// and ring reduce-scatter/allgather otherwise (the paper's experiments
// use p ∈ {1, 2, 3, 6, 12}, so non-power-of-two paths matter).
//
// The collectives run over a pluggable point-to-point Transport: the
// in-process mailbox world of Run (one goroutine per rank, the original
// behavior, bit for bit) or a length-prefixed TCP transport with a
// rendezvous bootstrap (ConnectTCP) for real multi-process runs. See
// ARCHITECTURE.md § Distributed transport for the interface contract,
// the bootstrap protocol, the failure/agreement semantics behind
// ErrRankLost and Comm.Heal.
//
// Per-rank traffic counters feed internal/perfmodel's communication model
// (ts + m·tw latency/bandwidth accounting).
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Comm is one rank's handle on the communicator, layering the collective
// schedule (SPMD tag sequencing, traffic counters and optional operation
// deadlines) over a Transport; its failures surface as the sticky error
// of Err. A Comm is confined to its rank's goroutine and is not safe for
// concurrent use; point-to-point traffic belongs on the Transport.
type Comm struct {
	t         Transport
	collSeq   int // per-rank collective sequence number (SPMD ordering)
	epoch     int // incremented by Heal; scopes agreement tags
	opTimeout time.Duration
	stats     Stats
	err       error // first transport error; see Err
}

// NewComm wraps a Transport endpoint in a communicator. All ranks of a
// group must construct their Comm over endpoints of the same group and
// keep their timeouts identical — the collectives are SPMD and both sides
// of every exchange must agree on the message schedule.
func NewComm(t Transport) *Comm { return &Comm{t: t} }

// Transport returns the underlying endpoint.
func (c *Comm) Transport() Transport { return c.t }

// SetOpTimeout bounds every point-to-point operation issued by this
// Comm: an operation that cannot complete within d fails with an error
// satisfying errors.Is(err, ErrRankLost). Zero (the default) waits
// forever, which is the right choice for the in-process world where a
// missing message is a bug, not a failure.
func (c *Comm) SetOpTimeout(d time.Duration) { c.opTimeout = d }

// OpTimeout reports the per-operation timeout (zero = wait forever).
func (c *Comm) OpTimeout() time.Duration { return c.opTimeout }

// Stats counts traffic originated by one rank.
type Stats struct {
	SentMessages int64
	SentBytes    int64 // 8 bytes per float64 element
	Collectives  int64
}

// Stats returns a copy of the rank's traffic counters.
func (c *Comm) Stats() Stats { return c.stats }

// Rank returns the caller's rank in [0, Size).
func (c *Comm) Rank() int { return c.t.Rank() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.t.Size() }

// deadline converts the Comm's operation timeout into an absolute
// deadline (zero when unbounded).
func (c *Comm) deadline() time.Time {
	if c.opTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(c.opTimeout)
}

// Run executes fn on p in-process ranks, one goroutine per rank, and
// blocks until all complete. It returns the per-rank stats and, if a
// rank panicked, an error naming that rank (see RunTransports).
func Run(p int, fn func(c *Comm)) ([]Stats, error) {
	return RunTransports(NewLocalWorld(p), fn)
}

// RunTransports is Run over caller-supplied endpoints (one per rank, in
// rank order): the seam the conformance and fault-injection suites use
// to drive the same SPMD body over any Transport implementation. A rank
// that panics, or returns while its Comm holds an error, has its
// transport closed, so peers waiting on it fail with ErrRankLost instead
// of blocking for ever.
func RunTransports(ts []Transport, fn func(c *Comm)) ([]Stats, error) {
	p := len(ts)
	if p == 0 {
		panic("mpi: non-positive rank count")
	}
	comms := make([]*Comm, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		comms[r] = NewComm(ts[r])
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, e)
				}
				if errs[r] != nil || comms[r].err != nil {
					ts[r].Close()
				}
			}()
			fn(comms[r])
		}(r)
	}
	wg.Wait()
	stats := make([]Stats, p)
	for r := range stats {
		stats[r] = comms[r].stats
	}
	return stats, errors.Join(errs...)
}

// Err returns the first transport error of the Comm's collectives, or
// nil; errors.Is(err, ErrRankLost) holds when a peer is gone. Once it is
// set, every collective returns at once without touching the wire.
func (c *Comm) Err() error { return c.err }

// send is the collectives' send. The first failure is kept in c.err.
func (c *Comm) send(dst, tag int, data []float64) {
	if c.err != nil {
		return
	}
	c.stats.SentMessages++
	c.stats.SentBytes += int64(8 * len(data))
	if err := c.t.Send(dst, tag, data, c.deadline()); err != nil {
		c.err = fmt.Errorf("mpi: rank %d collective send to rank %d tag %d: %w", c.Rank(), dst, tag, err)
	}
}

// recv is the collectives' receive. After a failure it yields nil,
// which every collective treats as an empty copy or reduce.
func (c *Comm) recv(src, tag int) []float64 {
	if c.err != nil {
		return nil
	}
	data, err := c.t.Recv(src, tag, c.deadline())
	if err != nil {
		c.err = fmt.Errorf("mpi: rank %d collective recv from rank %d tag %d: %w", c.Rank(), src, tag, err)
	}
	return data
}

// nextCollTag returns the reserved tag for the next collective. All ranks
// execute collectives in the same program order (SPMD), so sequence
// numbers agree across ranks. The tag is scoped by the heal epoch:
// messages from collectives abandoned when a rank was lost carry the old
// epoch's tags and can never be confused with post-heal traffic, however
// far ahead the failed schedule had run.
func (c *Comm) nextCollTag() int {
	c.collSeq++
	if c.err == nil {
		c.stats.Collectives++
	}
	return -(c.epoch<<collTagEpochShift + c.collSeq)
}

// collTagEpochShift gives each heal epoch 2³² collectives before its tags
// could touch the next epoch's range; agreement tags live further below
// (see agreeTagBase).
const collTagEpochShift = 32

// Barrier blocks until all ranks reach it (dissemination algorithm,
// ⌈log₂ p⌉ rounds).
func (c *Comm) Barrier() {
	p := c.Size()
	if p == 1 {
		c.nextCollTag()
		return
	}
	tag := c.nextCollTag()
	rank := c.Rank()
	for dist := 1; dist < p; dist *= 2 {
		to := (rank + dist) % p
		from := (rank - dist + p) % p
		c.send(to, tag, nil)
		c.recv(from, tag)
	}
}

// Bcast distributes root's data to every rank using a binomial tree
// (log p stages, as in the paper's MPI_Bcast cost model). data is
// overwritten on non-root ranks; all ranks must pass slices of equal
// length.
func (c *Comm) Bcast(root int, data []float64) {
	p := c.Size()
	tag := c.nextCollTag()
	if p == 1 {
		return
	}
	// Work in a rotated rank space where root is 0.
	vrank := (c.Rank() - root + p) % p
	// Receive from parent.
	if vrank != 0 {
		// The parent is vrank with its lowest set bit cleared.
		parent := ((vrank & (vrank - 1)) + root) % p
		got := c.recv(parent, tag)
		copy(data, got)
	}
	// Send to children: vrank | (1<<k) for k above vrank's lowest set bit.
	low := lowestBitPos(vrank)
	for k := low - 1; k >= 0; k-- {
		child := vrank | (1 << k)
		if child < p && child != vrank {
			c.send((child+root)%p, tag, data)
		}
	}
}

// lowestBitPos returns the position of the lowest set bit of v, or the
// number of bits needed for the tree when v is 0 (so the root sends to all
// levels).
func lowestBitPos(v int) int {
	if v == 0 {
		return 31
	}
	pos := 0
	for v&1 == 0 {
		v >>= 1
		pos++
	}
	return pos
}
