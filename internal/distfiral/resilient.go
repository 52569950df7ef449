package distfiral

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/firal"
	"repro/internal/mpi"
)

// ShardMaker rebuilds a rank's shard for a given communicator geometry.
// SelectResilient calls it once at start and again after every heal, with
// the survivor group's new size and this rank's new rank, so the maker
// must re-slice the same global problem by mpi.Partition(n, size, rank)
// — exactly what MakeStreamShard does when curried over its data
// arguments.
type ShardMaker func(size, rank int) (*Shard, error)

// ResilientResult reports a fault-tolerant distributed selection.
type ResilientResult struct {
	// Selected are the chosen global pool indices, identical across
	// surviving ranks.
	Selected []int
	// Relax and Round are the final (successful) attempt's results.
	Relax *RelaxResult
	Round *RoundResult
	// Rank and Size are this rank's position in the final communicator.
	Rank, Size int
	// LostRanks lists every rank declared dead over the run, in the
	// numbering of the communicator that lost it (original numbering for
	// the first loss, healed numbering for later ones).
	LostRanks []int
	// ResumePoints records the checkpoint each heal resumed from (nil =
	// restarted from scratch), in heal order. len(ResumePoints) is the
	// number of heal-reshard-resume cycles.
	ResumePoints []*firal.RelaxCheckpoint
}

// ckKey totally orders the checkpoint sequence (1,run)…(T,run),(T,done);
// nil (no checkpoint yet) sorts below everything.
func ckKey(ck *firal.RelaxCheckpoint) float64 {
	if ck == nil {
		return -1
	}
	k := float64(2 * ck.Iteration)
	if ck.Done {
		k++
	}
	return k
}

// agreeCheckpoint picks the newest checkpoint every rank of the healed
// communicator holds. A failure can strand survivors one checkpoint
// apart (a rank that completed the checkpoint gather next to one that
// died inside it), never more — completing gather k requires every live
// rank to have entered it — so the minimum over ranks is always each
// rank's last or previous checkpoint.
func agreeCheckpoint(c *mpi.Comm, last, prev *firal.RelaxCheckpoint) (*firal.RelaxCheckpoint, error) {
	minKey := c.AllreduceScalar(ckKey(last), mpi.Min)
	switch {
	case c.Err() != nil:
		return nil, c.Err()
	case ckKey(last) == minKey:
		return last, nil
	case ckKey(prev) == minKey:
		return prev, nil
	}
	return nil, fmt.Errorf("distfiral: no checkpoint at agreed step %g (have %g and %g)",
		minKey, ckKey(last), ckKey(prev))
}

// SelectResilient runs the full distributed Approx-FIRAL with rank-failure
// recovery: it checkpoints every completed RELAX iteration globally, and
// when a collective fails with mpi.ErrRankLost the survivors agree on the
// dead set (mpi.Comm.Heal) and on the newest common checkpoint, rebuild
// their shards over the survivor geometry, and restart the interrupted
// phase from that checkpoint — mid-RELAX losses resume at the
// checkpointed iteration, mid-ROUND losses rerun ROUND on the
// checkpointed final iterate (ROUND reruns from its start: its state is
// O(cd²) and cheap relative to RELAX, and rerunning keeps the selection
// bit-identical to a fresh survivor-count run).
//
// The communicator must have an operation timeout (mpi.Comm.SetOpTimeout)
// or failures can never be detected; SelectResilient refuses to start
// without one. o.Resume seeds the first attempt; o.OnIteration, if set,
// additionally observes every global checkpoint (set it on all ranks or
// on none — the checkpoint gather is a collective).
//
// Because checkpoints are global and the probe stream is owned by rank 0,
// the recovered selection is bit-identical to a fresh run at the survivor
// count resumed from the same checkpoint; the fault-injection tests pin
// this. If rank 0 dies, its probe stream dies with it: the new rank 0
// re-seeds from o.Seed and fast-forwards to the checkpointed iteration,
// which reproduces the identical stream.
func SelectResilient(ctx context.Context, c *mpi.Comm, mk ShardMaker, b int, eta float64, o firal.RelaxOptions) (*ResilientResult, error) {
	if c.OpTimeout() <= 0 {
		return nil, fmt.Errorf("distfiral: SelectResilient requires an operation timeout (SetOpTimeout) to detect rank failures")
	}
	res := &ResilientResult{}
	userHook := o.OnIteration

	var last, prev *firal.RelaxCheckpoint
	if o.Resume != nil {
		last = o.Resume.Clone()
	}
	for {
		s, err := mk(c.Size(), c.Rank())
		if err != nil {
			return nil, fmt.Errorf("distfiral: reshard at size %d: %w", c.Size(), err)
		}
		attempt := o
		attempt.Resume = last
		attempt.OnIteration = func(ck *firal.RelaxCheckpoint) {
			prev, last = last, ck.Clone()
			if userHook != nil {
				userHook(ck)
			}
		}
		sel, relax, round, err := Select(ctx, c, s, b, eta, attempt)
		if err == nil {
			res.Selected, res.Relax, res.Round = sel, relax, round
			res.Rank, res.Size = c.Rank(), c.Size()
			return res, nil
		}
		if !errors.Is(err, mpi.ErrRankLost) {
			return nil, err
		}
		nc, dead, herr := c.Heal()
		if herr != nil {
			return nil, fmt.Errorf("distfiral: heal after %w: %v", err, herr)
		}
		if len(dead) == 0 {
			// Spurious failure: every rank answered the agreement rounds,
			// so the loss was a transient (e.g. a delay spike past the op
			// timeout on one link). Retrying under the same timeout would
			// likely repeat it — surface the original error instead.
			return nil, err
		}
		ck, aerr := agreeCheckpoint(nc, last, prev)
		if aerr != nil {
			return nil, fmt.Errorf("distfiral: checkpoint agreement after heal: %w", aerr)
		}
		last, prev = ck, nil
		res.LostRanks = append(res.LostRanks, dead...)
		res.ResumePoints = append(res.ResumePoints, ck)
		c = nc
	}
}
