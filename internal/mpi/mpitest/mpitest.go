// Package mpitest is the transport conformance and fault-injection kit:
// a single table-driven suite covering the full collectives matrix
// (broadcast from every root, allreduce sum/max/min, ragged allgatherv
// payloads, concurrent per-tag point-to-point traffic, deep-copy
// aliasing) that every mpi.Transport implementation must pass, plus a
// FaultTransport wrapper that kills, partitions or delays a chosen rank
// at a chosen collective step for failure-recovery tests.
//
// Registering a new transport is one RunConformance call with a Factory;
// see conformance_test.go in internal/mpi for the in-process and
// TCP-loopback registrations.
package mpitest

import (
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
)

// noDeadline is the explicit "wait forever" deadline of the Transport
// contract.
func noDeadline() time.Time { return time.Time{} }

// Factory builds a connected transport group of size p, one endpoint per
// rank in rank order. Cleanup (closing endpoints, freeing ports) should
// be registered on t.
type Factory func(t testing.TB, p int) []mpi.Transport

// Sizes is the rank-count matrix of the conformance suite: the paper's
// GPU counts plus the awkward in-between values.
var Sizes = []int{1, 2, 3, 4, 6, 12}

// RunConformance runs the full collectives matrix against the factory's
// transport. Every subtest builds a fresh group, so factories may be
// stateful per call.
func RunConformance(t *testing.T, f Factory) {
	t.Run("Bcast", func(t *testing.T) { conformBcast(t, f) })
	t.Run("Allreduce", func(t *testing.T) { conformAllreduce(t, f) })
	t.Run("RaggedAllgatherv", func(t *testing.T) { conformRagged(t, f) })
	t.Run("MaxLoc", func(t *testing.T) { conformMaxLoc(t, f) })
	t.Run("Barrier", func(t *testing.T) { conformBarrier(t, f) })
	t.Run("ConcurrentTags", func(t *testing.T) { conformConcurrentTags(t, f) })
	t.Run("SendAliasing", func(t *testing.T) { conformAliasing(t, f) })
	t.Run("MixedSequence", func(t *testing.T) { conformMixed(t, f) })
}

func conformBcast(t *testing.T, f Factory) {
	for _, p := range Sizes {
		for root := 0; root < p; root++ {
			mpi.RunTransports(f(t, p), func(c *mpi.Comm) {
				data := make([]float64, 5)
				if c.Rank() == root {
					for i := range data {
						data[i] = float64(10*root + i)
					}
				}
				c.Bcast(root, data)
				for i := range data {
					if data[i] != float64(10*root+i) {
						t.Errorf("p=%d root=%d rank=%d: bcast got %v", p, root, c.Rank(), data)
						return
					}
				}
			})
		}
	}
}

func conformAllreduce(t *testing.T, f Factory) {
	for _, p := range Sizes {
		for _, n := range []int{1, 3, 64, 101} {
			mpi.RunTransports(f(t, p), func(c *mpi.Comm) {
				data := make([]float64, n)
				for i := range data {
					data[i] = float64(c.Rank()*n + i)
				}
				c.Allreduce(data, mpi.Sum)
				for i := range data {
					want := float64(n*p*(p-1)/2 + p*i)
					if data[i] != want {
						t.Errorf("p=%d n=%d rank=%d: sum[%d]=%g want %g", p, n, c.Rank(), i, data[i], want)
						return
					}
				}
				mx := []float64{float64(c.Rank()), -float64(c.Rank())}
				c.Allreduce(mx, mpi.Max)
				if mx[0] != float64(p-1) || mx[1] != 0 {
					t.Errorf("p=%d rank=%d: max got %v", p, c.Rank(), mx)
				}
				mn := []float64{float64(c.Rank())}
				c.Allreduce(mn, mpi.Min)
				if mn[0] != 0 {
					t.Errorf("p=%d rank=%d: min got %v", p, c.Rank(), mn)
				}
			})
		}
	}
}

func conformRagged(t *testing.T, f Factory) {
	for _, p := range Sizes {
		mpi.RunTransports(f(t, p), func(c *mpi.Comm) {
			// Rank r contributes r+1 elements (including a rank with the
			// minimum payload), each equal to r.
			local := make([]float64, c.Rank()+1)
			for i := range local {
				local[i] = float64(c.Rank())
			}
			out, counts := c.Allgatherv(local)
			if len(out) != p*(p+1)/2 {
				t.Errorf("p=%d: total %d", p, len(out))
				return
			}
			idx := 0
			for r := 0; r < p; r++ {
				if counts[r] != r+1 {
					t.Errorf("p=%d: counts[%d]=%d", p, r, counts[r])
					return
				}
				for k := 0; k < counts[r]; k++ {
					if out[idx] != float64(r) {
						t.Errorf("p=%d: element %d = %g want %d", p, idx, out[idx], r)
						return
					}
					idx++
				}
			}
		})
	}
}

func conformMaxLoc(t *testing.T, f Factory) {
	for _, p := range Sizes {
		mpi.RunTransports(f(t, p), func(c *mpi.Comm) {
			val := float64(c.Rank() % 3)
			v, r, loc := c.AllreduceMaxLoc(val, 100+c.Rank())
			wantRank, wantVal := 0, 0.0
			for q := 0; q < p; q++ {
				if qv := float64(q % 3); qv > wantVal {
					wantVal, wantRank = qv, q
				}
			}
			if v != wantVal || r != wantRank || loc != 100+wantRank {
				t.Errorf("p=%d rank=%d: maxloc (%g,%d,%d)", p, c.Rank(), v, r, loc)
			}
		})
	}
}

func conformBarrier(t *testing.T, f Factory) {
	for _, p := range Sizes {
		var mu sync.Mutex
		arrived := make([]bool, p)
		mpi.RunTransports(f(t, p), func(c *mpi.Comm) {
			mu.Lock()
			arrived[c.Rank()] = true
			mu.Unlock()
			c.Barrier()
			mu.Lock()
			defer mu.Unlock()
			for r, ok := range arrived {
				if !ok {
					t.Errorf("p=%d: rank %d passed the barrier before rank %d arrived", p, c.Rank(), r)
				}
			}
		})
	}
}

// conformConcurrentTags drives concurrent per-tag point-to-point traffic
// on the raw transport (the Transport contract requires concurrency
// safety; Comm does not). Under -race this doubles as the data-race
// check of the tentpole's satellite.
func conformConcurrentTags(t *testing.T, f Factory) {
	const tags = 8
	for _, p := range Sizes {
		if p == 1 {
			continue
		}
		ts := f(t, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(tr mpi.Transport) {
				defer wg.Done()
				me := tr.Rank()
				dst := (me + 1) % p
				src := (me - 1 + p) % p
				var inner sync.WaitGroup
				for tag := 0; tag < tags; tag++ {
					inner.Add(2)
					go func(tag int) {
						defer inner.Done()
						payload := []float64{float64(me), float64(tag), float64(me * tag)}
						if err := tr.Send(dst, tag, payload, noDeadline()); err != nil {
							t.Errorf("p=%d rank=%d tag=%d: send: %v", p, me, tag, err)
						}
					}(tag)
					go func(tag int) {
						defer inner.Done()
						got, err := tr.Recv(src, tag, noDeadline())
						if err != nil {
							t.Errorf("p=%d rank=%d tag=%d: recv: %v", p, me, tag, err)
							return
						}
						if len(got) != 3 || got[0] != float64(src) || got[1] != float64(tag) || got[2] != float64(src*tag) {
							t.Errorf("p=%d rank=%d tag=%d: payload %v", p, me, tag, got)
						}
					}(tag)
				}
				inner.Wait()
			}(ts[r])
		}
		wg.Wait()
	}
}

// conformAliasing is the explicit deep-copy-on-send regression test: a
// sender mutating its buffer right after Send must not corrupt what the
// receiver sees, on any transport.
func conformAliasing(t *testing.T, f Factory) {
	mpi.RunTransports(f(t, 2), func(c *mpi.Comm) {
		if c.Rank() == 0 {
			buf := []float64{1, 2, 3}
			if err := c.Send(1, 5, buf); err != nil {
				t.Errorf("send: %v", err)
			}
			buf[0], buf[1], buf[2] = 99, 98, 97 // must not reach rank 1
			c.Barrier()
		} else {
			c.Barrier()
			got, err := c.Recv(0, 5)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if got[0] != 1 || got[1] != 2 || got[2] != 3 {
				t.Errorf("send aliased the sender's buffer: %v", got)
			}
		}
	})
}

func conformMixed(t *testing.T, f Factory) {
	mpi.RunTransports(f(t, 6), func(c *mpi.Comm) {
		a := []float64{1}
		c.Allreduce(a, mpi.Sum)
		if a[0] != 6 {
			t.Errorf("first allreduce %g", a[0])
		}
		b := make([]float64, 2)
		if c.Rank() == 3 {
			b[0], b[1] = 5, 6
		}
		c.Bcast(3, b)
		if b[0] != 5 || b[1] != 6 {
			t.Errorf("bcast after allreduce %v", b)
		}
		c.Barrier()
		g := c.Allgather([]float64{float64(c.Rank())})
		for r := 0; r < 6; r++ {
			if g[r] != float64(r) {
				t.Errorf("allgather after barrier %v", g)
				return
			}
		}
	})
}
