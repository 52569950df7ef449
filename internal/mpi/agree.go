package mpi

import (
	"fmt"
	"sort"
	"time"
)

// Rank-failure recovery. When a collective fails with ErrRankLost the
// survivors must agree on who is gone before they can continue: each
// rank only observes its own neighbours' silence, and (in the ring and
// tree algorithms) a rank can time out on a peer that is alive but
// itself stuck behind the dead rank. Heal runs a fixed-round
// all-to-all agreement — every rank gossips its suspicion mask to every
// other rank and unions what it hears back — and returns a new Comm over
// the sorted survivors.
//
// The supported failure model is crash-stop before agreement begins: a
// rank that dies stays dead, and no further rank dies while the
// survivors agree. Under that model every survivor times out on exactly
// the dead set in the first exchange and the second exchange makes the
// union common knowledge, so two rounds suffice. A rank that is merely
// slow for longer than the agreement timeout is indistinguishable from a
// dead one (FLP applies); it will be excluded, observe itself suspected,
// and get an error rather than a split-brain Comm — except under a true
// network partition, where each side heals to its own group (documented
// limitation; the ARCHITECTURE notes how the CLI surfaces it).

// agreeTagBase is the top of the reserved tag range for agreement
// traffic, far below any collective tag (collectives use
// -(epoch·2³² + seq); epochs are counted in heals).
const agreeTagBase = -(1 << 50)

// maxAgreeRounds bounds the per-epoch agreement tag space.
const maxAgreeRounds = 8

func agreeTag(epoch, round int) int {
	return agreeTagBase - epoch*maxAgreeRounds - round
}

// Heal agrees on the dead set with the other survivors and returns a new
// Comm over the remaining ranks (re-numbered 0..len(survivors)-1 in old
// rank order), plus the dead ranks in this Comm's numbering. The caller
// must have an operation timeout set — without deadlines a lost rank
// blocks forever and there is nothing to heal from. The returned Comm
// inherits the timeout and traffic counters; its collective
// sequence restarts under a fresh epoch, so stale messages from the
// abandoned schedule are never matched again.
//
// All survivors must call Heal (they will: once a rank is lost, every
// survivor's collective schedule eventually times out) and must then
// re-shard any rank-partitioned data against the new size and rank.
func (c *Comm) Heal() (*Comm, []int, error) {
	if c.opTimeout <= 0 {
		return nil, nil, fmt.Errorf("mpi: Heal needs an operation timeout (SetOpTimeout) to distinguish lost ranks")
	}
	p := c.Size()
	me := c.Rank()
	// The agreement timeout must cover a survivor that is still timing
	// out of the abandoned collective schedule a few operations behind
	// us, so it is a generous multiple of the per-op deadline.
	agreeTimeout := 8 * c.opTimeout
	if agreeTimeout < 500*time.Millisecond {
		agreeTimeout = 500 * time.Millisecond
	}
	suspect := make([]bool, p)
	payload := make([]float64, p)
	for round := 0; round < 2; round++ {
		tag := agreeTag(c.epoch, round)
		for r := 0; r < p; r++ {
			if suspect[r] {
				payload[r] = 1
			} else {
				payload[r] = 0
			}
		}
		for r := 0; r < p; r++ {
			if r == me || suspect[r] {
				continue
			}
			// Best effort: a send failure just means the peer is dead,
			// which the recv pass below will record.
			_ = c.t.Send(r, tag, payload, time.Now().Add(agreeTimeout))
		}
		for r := 0; r < p; r++ {
			if r == me || suspect[r] {
				continue
			}
			got, err := c.t.Recv(r, tag, time.Now().Add(agreeTimeout))
			if err != nil {
				suspect[r] = true
				continue
			}
			for q := 0; q < p && q < len(got); q++ {
				if got[q] != 0 {
					suspect[q] = true
				}
			}
		}
		if suspect[me] {
			return nil, nil, fmt.Errorf("mpi: rank %d excluded during failure agreement (suspected dead by the survivors)", me)
		}
	}
	var survivors, dead []int
	for r := 0; r < p; r++ {
		if suspect[r] {
			dead = append(dead, r)
		} else {
			survivors = append(survivors, r)
		}
	}
	sort.Ints(survivors)
	newRank := sort.SearchInts(survivors, me)
	nc := &Comm{
		t:         &remapTransport{parent: c.t, oldOf: survivors, rank: newRank},
		epoch:     c.epoch + 1,
		opTimeout: c.opTimeout,
		stats:     c.stats,
	}
	return nc, dead, nil
}

// remapTransport renumbers a transport group after ranks were lost:
// new rank i speaks as old rank oldOf[i]. Matching still happens in the
// parent's matcher under old source ranks; only the addressing changes.
type remapTransport struct {
	parent Transport
	oldOf  []int // oldOf[newRank] = parent rank, sorted ascending
	rank   int   // this endpoint's new rank
}

func (t *remapTransport) Rank() int { return t.rank }
func (t *remapTransport) Size() int { return len(t.oldOf) }

func (t *remapTransport) Send(dst, tag int, data []float64, deadline time.Time) error {
	return t.parent.Send(t.oldOf[dst], tag, data, deadline)
}

func (t *remapTransport) Recv(src, tag int, deadline time.Time) ([]float64, error) {
	return t.parent.Recv(t.oldOf[src], tag, deadline)
}

func (t *remapTransport) Close() error { return t.parent.Close() }
