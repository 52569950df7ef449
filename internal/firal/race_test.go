package firal

import (
	"context"
	"sync"
	"testing"

	"repro/internal/parallel"
)

// TestConcurrentSelectSessions drives several full Approx-FIRAL
// selections at once on the shared worker pool. Run with -race this
// exercises the pool's dispatch protocol and the pooled kernel tasks
// under real kernel load; without -race it still checks that concurrent
// sessions produce the same selections as a serial run. (Pool resizing
// under dispatch load is covered by TestPoolStress in internal/parallel.)
func TestConcurrentSelectSessions(t *testing.T) {
	prev := parallel.SetMaxWorkers(4)
	defer parallel.SetMaxWorkers(prev)

	const sessions = 4
	want := make([][]int, sessions)
	for g := 0; g < sessions; g++ {
		p := testProblem(int64(100+g), 10, 300, 16, 5)
		res, err := SelectApprox(context.Background(), p, 3, Options{
			Relax: RelaxOptions{FixedIterations: 2, Seed: int64(g)},
		})
		if err != nil {
			t.Fatal(err)
		}
		want[g] = res.Selected
	}

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	got := make([][]int, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each session owns its Problem and workspace; only the worker
			// pool is shared.
			p := testProblem(int64(100+g), 10, 300, 16, 5)
			res, err := SelectApprox(context.Background(), p, 3, Options{
				Relax: RelaxOptions{FixedIterations: 2, Seed: int64(g)},
			})
			if err != nil {
				errs[g] = err
				return
			}
			got[g] = res.Selected
		}(g)
	}
	wg.Wait()
	for g := 0; g < sessions; g++ {
		if errs[g] != nil {
			t.Fatalf("session %d: %v", g, errs[g])
		}
		if len(got[g]) != len(want[g]) {
			t.Fatalf("session %d: selected %v, serial run selected %v", g, got[g], want[g])
		}
		for i := range got[g] {
			if got[g][i] != want[g][i] {
				t.Fatalf("session %d: selected %v, serial run selected %v", g, got[g], want[g])
			}
		}
	}
}
