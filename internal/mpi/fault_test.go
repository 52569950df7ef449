package mpi_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
)

const faultOpTimeout = 100 * time.Millisecond

// runSchedule is a fixed SPMD collective schedule that every rank runs
// until it completes or a rank is lost.
func runSchedule(c *mpi.Comm, iters int) error {
	for i := 0; i < iters && c.Err() == nil; i++ {
		data := []float64{float64(c.Rank()), 1}
		c.Allreduce(data, mpi.Sum)
		c.Bcast(i%c.Size(), data)
	}
	return c.Err()
}

// runTransports is mpi.RunTransports failing the test when a rank
// panicked.
func runTransports(t *testing.T, ts []mpi.Transport, fn func(c *mpi.Comm)) {
	t.Helper()
	if _, err := mpi.RunTransports(ts, fn); err != nil {
		t.Fatal(err)
	}
}

// TestHealAfterKill kills one rank mid-schedule and checks that every
// survivor observes ErrRankLost, agrees on exactly the dead rank, and
// can run collectives on the healed (p−1)-communicator.
func TestHealAfterKill(t *testing.T) {
	const p, victim = 4, 2
	plan := &mpitest.FaultPlan{Victim: victim, Kind: mpitest.FaultKill, AfterCollectives: 3}
	var mu sync.Mutex
	deadSets := make(map[int][]int)
	runTransports(t, plan.Wrap(mpi.NewLocalWorld(p)), func(c *mpi.Comm) {
		c.SetOpTimeout(faultOpTimeout)
		err := runSchedule(c, 10)
		if c.Rank() == victim {
			if !errors.Is(err, mpitest.ErrVictimKilled) {
				t.Errorf("victim: got %v, want its own kill error", err)
			}
			return
		}
		if !errors.Is(err, mpi.ErrRankLost) {
			t.Errorf("rank %d: got %v, want ErrRankLost", c.Rank(), err)
			return
		}
		nc, dead, herr := c.Heal()
		if herr != nil {
			t.Errorf("rank %d: heal: %v", c.Rank(), herr)
			return
		}
		mu.Lock()
		deadSets[c.Rank()] = dead
		mu.Unlock()
		if nc.Size() != p-1 {
			t.Errorf("rank %d: healed size %d, want %d", c.Rank(), nc.Size(), p-1)
			return
		}
		// The healed communicator must be fully usable: survivors are old
		// ranks {0, 1, 3} renumbered {0, 1, 2}.
		sum := nc.AllreduceScalar(float64(nc.Rank()), mpi.Sum)
		if sum != 3 {
			t.Errorf("rank %d: healed allreduce %g, want 3", c.Rank(), sum)
		}
	})
	for r, dead := range deadSets {
		if len(dead) != 1 || dead[0] != victim {
			t.Errorf("rank %d agreed on dead set %v, want [%d]", r, dead, victim)
		}
	}
	if len(deadSets) != p-1 {
		t.Errorf("only %d survivors healed, want %d", len(deadSets), p-1)
	}
}

// TestPartitionSplitBrain partitions a rank instead of killing it: the
// survivors heal to a (p−1)-group while the victim, timing out on
// everyone, heals to a group of one — the documented split-brain
// outcome.
func TestPartitionSplitBrain(t *testing.T) {
	const p, victim = 3, 1
	plan := &mpitest.FaultPlan{Victim: victim, Kind: mpitest.FaultPartition, AfterCollectives: 2}
	runTransports(t, plan.Wrap(mpi.NewLocalWorld(p)), func(c *mpi.Comm) {
		c.SetOpTimeout(faultOpTimeout)
		err := runSchedule(c, 10)
		if !errors.Is(err, mpi.ErrRankLost) {
			t.Errorf("rank %d: got %v, want ErrRankLost", c.Rank(), err)
			return
		}
		nc, dead, herr := c.Heal()
		if herr != nil {
			t.Errorf("rank %d: heal: %v", c.Rank(), herr)
			return
		}
		if c.Rank() == victim {
			if nc.Size() != 1 || len(dead) != p-1 {
				t.Errorf("victim healed to size %d with dead %v, want a group of one", nc.Size(), dead)
			}
			return
		}
		if nc.Size() != p-1 || len(dead) != 1 || dead[0] != victim {
			t.Errorf("rank %d: healed size %d dead %v", c.Rank(), nc.Size(), dead)
		}
	})
}

// TestDelayBelowTimeoutIsHarmless delays the victim's traffic by less
// than the operation timeout: nothing may be declared lost and the
// schedule must complete with the fault-free results — the
// false-positive guard on the failure detector.
func TestDelayBelowTimeoutIsHarmless(t *testing.T) {
	const p = 3
	plan := &mpitest.FaultPlan{Victim: 1, Kind: mpitest.FaultDelay, AfterCollectives: 1, Delay: 10 * time.Millisecond}
	runTransports(t, plan.Wrap(mpi.NewLocalWorld(p)), func(c *mpi.Comm) {
		c.SetOpTimeout(time.Second)
		if err := runSchedule(c, 4); err != nil {
			t.Errorf("rank %d: delayed schedule failed: %v", c.Rank(), err)
		}
	})
}

// TestHealRequiresTimeout pins the guard: healing without deadlines is
// meaningless and must be refused, not deadlock.
func TestHealRequiresTimeout(t *testing.T) {
	runTransports(t, mpi.NewLocalWorld(2), func(c *mpi.Comm) {
		if _, _, err := c.Heal(); err == nil {
			t.Errorf("rank %d: Heal without SetOpTimeout should fail", c.Rank())
		}
	})
}

// TestSendRecvErrorsWrapContext pins that a collective's transport
// failure is kept with the rank and tag wrapped by %w, so errors.Is sees
// ErrRankLost through the context.
func TestSendRecvErrorsWrapContext(t *testing.T) {
	// Rank 0 exits immediately without sending: rank 1's deadline is the
	// failure detector.
	runTransports(t, mpi.NewLocalWorld(2), func(c *mpi.Comm) {
		if c.Rank() != 1 {
			return
		}
		c.SetOpTimeout(50 * time.Millisecond)
		c.Bcast(0, make([]float64, 1))
		err := c.Err()
		if !errors.Is(err, mpi.ErrRankLost) {
			t.Errorf("recv error %v does not wrap ErrRankLost", err)
		}
		var lost *mpi.LostError
		if !errors.As(err, &lost) || lost.Rank != 0 || lost.Tag >= 0 {
			t.Errorf("recv error %v does not carry rank/tag context", err)
		}
	})
}
