package distfiral

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/firal"
	"repro/internal/hessian"
	"repro/internal/mpi"
	"repro/internal/mpi/mpitest"
)

const distFaultTimeout = 150 * time.Millisecond

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// victimCollectives measures how many collectives the victim's endpoint
// participates in during a fault-free distributed RELAX with the given
// options — the calibration for planting a fault at a chosen phase. The
// checkpoint hook is set (as SelectResilient always sets it) so the
// collective schedule matches the run under test.
func victimCollectives(t *testing.T, labeled, pool *hessian.Set, p, b, victim int, opts firal.RelaxOptions) int {
	t.Helper()
	opts.OnIteration = func(*firal.RelaxCheckpoint) {}
	stats := runRanks(t, p, func(c *mpi.Comm) {
		sh := residentShard(labeled, pool, p, c.Rank())
		if _, err := Relax(context.Background(), c, sh, b, opts); err != nil {
			t.Errorf("calibration relax: %v", err)
		}
	})
	return int(stats[victim].Collectives)
}

// freshSelect runs a fault-free p-rank Select resumed from ck and returns
// its selection — the reference the healed run must match bit for bit.
func freshSelect(t *testing.T, labeled, pool *hessian.Set, p, b int, opts firal.RelaxOptions, ck *firal.RelaxCheckpoint) []int {
	t.Helper()
	opts.Resume = ck
	var out []int
	var once sync.Once
	runRanks(t, p, func(c *mpi.Comm) {
		sh := residentShard(labeled, pool, p, c.Rank())
		sel, _, _, err := Select(context.Background(), c, sh, b, 0, opts)
		if err != nil {
			t.Errorf("fresh %d-rank run: %v", p, err)
			return
		}
		once.Do(func() { out = sel })
	})
	return out
}

// runResilientWithKill runs SelectResilient at p ranks with the victim
// killed after the given collective count and returns the survivors'
// results keyed by original rank.
func runResilientWithKill(t *testing.T, labeled, pool *hessian.Set, p, b, victim, afterCollectives int, opts firal.RelaxOptions) map[int]*ResilientResult {
	t.Helper()
	plan := &mpitest.FaultPlan{Victim: victim, Kind: mpitest.FaultKill, AfterCollectives: afterCollectives}
	var mu sync.Mutex
	results := make(map[int]*ResilientResult)
	runTransports(t, plan.Wrap(mpi.NewLocalWorld(p)), func(c *mpi.Comm) {
		c.SetOpTimeout(distFaultTimeout)
		mk := func(size, rank int) (*Shard, error) {
			return residentShard(labeled, pool, size, rank), nil
		}
		res, err := SelectResilient(context.Background(), c, mk, b, 0, opts)
		if c.Rank() == victim {
			if !errors.Is(err, mpitest.ErrVictimKilled) {
				t.Errorf("victim: got %v, want its own kill error", err)
			}
			return
		}
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
	})
	if len(results) != p-1 {
		t.Fatalf("%d survivors finished, want %d", len(results), p-1)
	}
	return results
}

// checkRecovery asserts the survivors agree with each other, lost exactly
// the victim, and — the ISSUE's core acceptance — selected bit-identically
// to a fresh (p−1)-rank run resumed from the same checkpoint.
func checkRecovery(t *testing.T, labeled, pool *hessian.Set, p, b, victim int, opts firal.RelaxOptions, results map[int]*ResilientResult) *firal.RelaxCheckpoint {
	t.Helper()
	var ref *ResilientResult
	for _, res := range results {
		ref = res
		break
	}
	for r, res := range results {
		if len(res.LostRanks) != 1 || res.LostRanks[0] != victim {
			t.Fatalf("rank %d: lost ranks %v, want [%d]", r, res.LostRanks, victim)
		}
		if res.Size != p-1 {
			t.Fatalf("rank %d: final size %d, want %d", r, res.Size, p-1)
		}
		if !equalInts(res.Selected, ref.Selected) {
			t.Fatalf("rank %d selection %v disagrees with %v", r, res.Selected, ref.Selected)
		}
		if len(res.ResumePoints) != 1 {
			t.Fatalf("rank %d: %d heals, want 1", r, len(res.ResumePoints))
		}
		if ckKey(res.ResumePoints[0]) != ckKey(ref.ResumePoints[0]) {
			t.Fatalf("rank %d resumed from step %g, rank %d from %g",
				r, ckKey(res.ResumePoints[0]), ref.Rank, ckKey(ref.ResumePoints[0]))
		}
	}
	fresh := freshSelect(t, labeled, pool, p-1, b, opts, ref.ResumePoints[0])
	if !equalInts(fresh, ref.Selected) {
		t.Fatalf("healed selection %v differs from fresh %d-rank run %v resumed from the same checkpoint",
			ref.Selected, p-1, fresh)
	}
	return ref.ResumePoints[0]
}

// TestSelectResilientKillMidRelax kills one rank in the middle of the
// mirror-descent loop — including rank 0, whose death takes the probe
// stream with it — and checks the survivors heal, re-shard, resume from
// the agreed checkpoint, and select exactly what a fresh (p−1)-rank run
// resumed from that checkpoint selects.
func TestSelectResilientKillMidRelax(t *testing.T) {
	labeled, pool := testSets(7, 8, 30, 3, 3)
	const p, b = 3, 5
	opts := firal.RelaxOptions{FixedIterations: 7, Seed: 11, Probes: 6, CGTol: 0.01}
	for _, victim := range []int{0, 2} {
		t.Run(fmt.Sprintf("victim=%d", victim), func(t *testing.T) {
			calib := opts
			calib.FixedIterations = 3
			after := victimCollectives(t, labeled, pool, p, b, victim, calib)
			results := runResilientWithKill(t, labeled, pool, p, b, victim, after, opts)
			ck := checkRecovery(t, labeled, pool, p, b, victim, opts, results)
			if ck == nil || ck.Done {
				t.Fatalf("expected a mid-RELAX checkpoint, resumed from %+v", ck)
			}
			if ck.Iteration < 1 || ck.Iteration >= opts.FixedIterations {
				t.Fatalf("resume iteration %d not strictly inside the %d-iteration RELAX", ck.Iteration, opts.FixedIterations)
			}
		})
	}
}

// TestSelectResilientKillMidRound plants the kill a few collectives after
// RELAX completes, so the loss hits the greedy rounding loop: survivors
// must resume with mirror descent skipped (or only its final checkpoint
// replayed) and rerun ROUND to the same selection as a fresh (p−1)-rank
// run from the final checkpoint.
func TestSelectResilientKillMidRound(t *testing.T) {
	labeled, pool := testSets(7, 8, 30, 3, 3)
	const p, b, victim = 3, 5, 1
	opts := firal.RelaxOptions{FixedIterations: 5, Seed: 11, Probes: 6, CGTol: 0.01}
	after := victimCollectives(t, labeled, pool, p, b, victim, opts) + 4
	results := runResilientWithKill(t, labeled, pool, p, b, victim, after, opts)
	ck := checkRecovery(t, labeled, pool, p, b, victim, opts, results)
	if ck == nil || ck.Iteration != opts.FixedIterations {
		t.Fatalf("expected the final RELAX checkpoint, resumed from %+v", ck)
	}
}

// TestSelectResilientCleanRunMatchesSelect pins the zero-fault overhead
// path: with no failures SelectResilient must select exactly what plain
// Select does (the checkpoint gathers change the collective schedule but
// not the data flow).
func TestSelectResilientCleanRunMatchesSelect(t *testing.T) {
	labeled, pool := testSets(9, 8, 24, 3, 3)
	const p, b = 3, 4
	opts := firal.RelaxOptions{FixedIterations: 4, Seed: 5, Probes: 6, CGTol: 0.01}
	want := freshSelect(t, labeled, pool, p, b, opts, nil)
	var mu sync.Mutex
	results := make(map[int]*ResilientResult)
	runRanks(t, p, func(c *mpi.Comm) {
		c.SetOpTimeout(5 * time.Second)
		mk := func(size, rank int) (*Shard, error) {
			return residentShard(labeled, pool, size, rank), nil
		}
		res, err := SelectResilient(context.Background(), c, mk, b, 0, opts)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
	})
	for r, res := range results {
		if len(res.LostRanks) != 0 || len(res.ResumePoints) != 0 {
			t.Fatalf("rank %d: clean run reports losses %v / %d heals", r, res.LostRanks, len(res.ResumePoints))
		}
		if !equalInts(res.Selected, want) {
			t.Fatalf("rank %d: resilient %v vs plain %v", r, res.Selected, want)
		}
	}
}

// TestSelectResilientRequiresTimeout pins the guard: resilience without a
// failure detector is a lie and must be refused up front.
func TestSelectResilientRequiresTimeout(t *testing.T) {
	labeled, pool := testSets(9, 6, 12, 2, 3)
	runRanks(t, 2, func(c *mpi.Comm) {
		mk := func(size, rank int) (*Shard, error) {
			return residentShard(labeled, pool, size, rank), nil
		}
		if _, err := SelectResilient(context.Background(), c, mk, 2, 0, firal.RelaxOptions{FixedIterations: 2}); err == nil {
			t.Errorf("rank %d: SelectResilient without SetOpTimeout should fail", c.Rank())
		}
	})
}

// TestDistributedRelaxCheckpointResume pins the serial-parity resume
// semantics on the distributed solver: resuming mid-run at the same rank
// count reproduces the uninterrupted trajectory bit for bit, and resuming
// a Done checkpoint skips mirror descent entirely.
func TestDistributedRelaxCheckpointResume(t *testing.T) {
	labeled, pool := testSets(8, 8, 28, 3, 3)
	const p, b = 3, 4
	opts := firal.RelaxOptions{FixedIterations: 6, Seed: 13, Probes: 6, CGTol: 0.01}

	var mu sync.Mutex
	var cks []*firal.RelaxCheckpoint // rank 0's checkpoint stream
	full := make([][]float64, p)
	runRanks(t, p, func(c *mpi.Comm) {
		sh := residentShard(labeled, pool, p, c.Rank())
		o := opts
		o.OnIteration = func(ck *firal.RelaxCheckpoint) {
			if c.Rank() == 0 {
				cks = append(cks, ck.Clone())
			}
		}
		res, err := Relax(context.Background(), c, sh, b, o)
		if err != nil {
			t.Errorf("full run: %v", err)
			return
		}
		mu.Lock()
		full[c.Rank()] = res.Z
		mu.Unlock()
	})
	if len(cks) != opts.FixedIterations+1 || !cks[len(cks)-1].Done {
		t.Fatalf("captured %d checkpoints (last done=%v), want %d with a Done tail",
			len(cks), cks[len(cks)-1].Done, opts.FixedIterations+1)
	}

	// Resume from the middle at the same rank count: bit-identical z⋄.
	resumed := make([][]float64, p)
	runRanks(t, p, func(c *mpi.Comm) {
		sh := residentShard(labeled, pool, p, c.Rank())
		o := opts
		o.Resume = cks[2] // after iteration 3
		res, err := Relax(context.Background(), c, sh, b, o)
		if err != nil {
			t.Errorf("resumed run: %v", err)
			return
		}
		mu.Lock()
		resumed[c.Rank()] = res.Z
		mu.Unlock()
	})
	for r := 0; r < p; r++ {
		for i := range full[r] {
			if resumed[r][i] != full[r][i] {
				t.Fatalf("rank %d: resumed z[%d]=%g, uninterrupted %g", r, i, resumed[r][i], full[r][i])
			}
		}
	}

	// Resume the Done checkpoint, at a different rank count: mirror
	// descent is skipped and the restored iterate reproduces the full
	// run's z⋄ exactly (the checkpoint is global, so re-sharding at p−1
	// just re-slices it).
	runRanks(t, p-1, func(c *mpi.Comm) {
		sh := residentShard(labeled, pool, p-1, c.Rank())
		o := opts
		o.Resume = cks[len(cks)-1]
		res, err := Relax(context.Background(), c, sh, b, o)
		if err != nil {
			t.Errorf("done-resume: %v", err)
			return
		}
		if res.Iterations != opts.FixedIterations {
			t.Errorf("done-resume reports %d iterations", res.Iterations)
		}
		lo := sh.PoolOffset
		for i, v := range res.Z {
			want := cks[len(cks)-1].Z[lo+i] * float64(b)
			if v != want {
				t.Errorf("rank %d: done-resume z[%d]=%g, want %g", c.Rank(), i, v, want)
				return
			}
		}
	})
}

// TestRelaxRejectsMismatchedCheckpoint pins the ErrBadCheckpoint wrap.
func TestRelaxRejectsMismatchedCheckpoint(t *testing.T) {
	labeled, pool := testSets(9, 6, 12, 2, 3)
	runRanks(t, 2, func(c *mpi.Comm) {
		sh := residentShard(labeled, pool, 2, c.Rank())
		o := firal.RelaxOptions{FixedIterations: 2, Resume: &firal.RelaxCheckpoint{Iteration: 1, Z: make([]float64, 5)}}
		_, err := Relax(context.Background(), c, sh, 2, o)
		if !errors.Is(err, firal.ErrBadCheckpoint) {
			t.Errorf("rank %d: got %v, want ErrBadCheckpoint", c.Rank(), err)
		}
	})
}
