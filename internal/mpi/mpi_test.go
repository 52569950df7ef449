package mpi

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// ranksToTest includes the paper's GPU counts (1, 2, 3, 6, 12) plus other
// awkward values.
var ranksToTest = []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 13}

func TestSendRecv(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, []float64{1, 2, 3}); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			got, err := c.Recv(0, 7)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("bad payload %v", got)
			}
		}
	})
}

func TestSendCopiesData(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{1}
			if err := c.Send(1, 0, buf); err != nil {
				t.Errorf("send: %v", err)
			}
			buf[0] = 99 // must not affect receiver
			c.Barrier()
		} else {
			c.Barrier()
			got, err := c.Recv(0, 0)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if got[0] != 1 {
				t.Errorf("send aliased sender buffer: %v", got)
			}
		}
	})
}

func TestRecvOutOfOrderTags(t *testing.T) {
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			for tag, v := range map[int]float64{1: 1, 2: 2} {
				if err := c.Send(1, tag, []float64{v}); err != nil {
					t.Errorf("send tag %d: %v", tag, err)
				}
			}
		} else {
			// Receive in reverse tag order.
			for _, tag := range []int{2, 1} {
				got, err := c.Recv(0, tag)
				if err != nil {
					t.Errorf("recv tag %d: %v", tag, err)
					return
				}
				if got[0] != float64(tag) {
					t.Errorf("tag %d payload %v", tag, got)
				}
			}
		}
	})
}

func TestBarrier(t *testing.T) {
	for _, p := range ranksToTest {
		var mu sync.Mutex
		phase := make([]int, p)
		Run(p, func(c *Comm) {
			mu.Lock()
			phase[c.Rank()] = 1
			mu.Unlock()
			c.Barrier()
			mu.Lock()
			for r, v := range phase {
				if v != 1 {
					t.Errorf("p=%d: rank %d passed barrier before rank %d arrived", p, c.Rank(), r)
				}
			}
			mu.Unlock()
		})
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, p := range ranksToTest {
		for root := 0; root < p; root++ {
			Run(p, func(c *Comm) {
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

func TestAllreduceSum(t *testing.T) {
	for _, p := range ranksToTest {
		for _, n := range []int{1, 2, 3, 7, 64, 101} {
			Run(p, func(c *Comm) {
				data := make([]float64, n)
				for i := range data {
					data[i] = float64(c.Rank()*n + i)
				}
				c.Allreduce(data, Sum)
				for i := range data {
					// Σ_r (r·n + i) = n·p(p−1)/2 + p·i
					want := float64(n*p*(p-1)/2 + p*i)
					if data[i] != want {
						t.Fatalf("p=%d n=%d rank=%d: allreduce[%d]=%g want %g", p, n, c.Rank(), i, data[i], want)
					}
				}
			})
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	for _, p := range ranksToTest {
		Run(p, func(c *Comm) {
			v := []float64{float64(c.Rank()), -float64(c.Rank())}
			c.Allreduce(v, Max)
			if v[0] != float64(p-1) || v[1] != 0 {
				t.Errorf("p=%d: max got %v", p, v)
			}
			w := []float64{float64(c.Rank())}
			c.Allreduce(w, Min)
			if w[0] != 0 {
				t.Errorf("p=%d: min got %v", p, w)
			}
		})
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range ranksToTest {
		Run(p, func(c *Comm) {
			local := []float64{float64(c.Rank()), float64(c.Rank() * 10)}
			out := c.Allgather(local)
			if len(out) != 2*p {
				t.Errorf("p=%d: allgather length %d", p, len(out))
				return
			}
			for r := 0; r < p; r++ {
				if out[2*r] != float64(r) || out[2*r+1] != float64(r*10) {
					t.Errorf("p=%d rank=%d: block %d wrong: %v", p, c.Rank(), r, out)
					return
				}
			}
		})
	}
}

func TestAllgatherv(t *testing.T) {
	for _, p := range ranksToTest {
		Run(p, func(c *Comm) {
			// Rank r contributes r+1 elements, each equal to r.
			local := make([]float64, c.Rank()+1)
			for i := range local {
				local[i] = float64(c.Rank())
			}
			out, counts := c.Allgatherv(local)
			wantTotal := p * (p + 1) / 2
			if len(out) != wantTotal {
				t.Errorf("p=%d: total %d want %d", p, len(out), wantTotal)
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

func TestAllreduceMaxLoc(t *testing.T) {
	for _, p := range ranksToTest {
		Run(p, func(c *Comm) {
			// Rank r proposes value (r % 3) with loc 100+r: the winner is
			// the smallest rank with value 2 (or value p-1 patterns for
			// small p).
			val := float64(c.Rank() % 3)
			v, r, loc := c.AllreduceMaxLoc(val, 100+c.Rank())
			wantRank := 0
			wantVal := 0.0
			for q := 0; q < p; q++ {
				qv := float64(q % 3)
				if qv > wantVal {
					wantVal, wantRank = qv, q
				}
			}
			if v != wantVal || r != wantRank || loc != 100+wantRank {
				t.Errorf("p=%d rank=%d: maxloc (%g,%d,%d) want (%g,%d,%d)",
					p, c.Rank(), v, r, loc, wantVal, wantRank, 100+wantRank)
			}
		})
	}
}

// TestAllreduceRandomProperty cross-checks Allreduce against a sequential
// reduction for random sizes and rank counts.
func TestAllreduceRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(9)
		n := 1 + rng.Intn(40)
		inputs := make([][]float64, p)
		want := make([]float64, n)
		for r := range inputs {
			inputs[r] = make([]float64, n)
			for i := range inputs[r] {
				inputs[r][i] = rng.NormFloat64()
				want[i] += inputs[r][i]
			}
		}
		okAll := true
		var mu sync.Mutex
		Run(p, func(c *Comm) {
			data := append([]float64(nil), inputs[c.Rank()]...)
			c.Allreduce(data, Sum)
			for i := range data {
				if diff := data[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
					mu.Lock()
					okAll = false
					mu.Unlock()
					return
				}
			}
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMixedCollectiveSequence(t *testing.T) {
	// Interleave different collectives to exercise tag sequencing.
	Run(6, func(c *Comm) {
		a := []float64{1}
		c.Allreduce(a, Sum)
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

func TestPartition(t *testing.T) {
	for _, p := range ranksToTest {
		for _, n := range []int{0, 1, 5, 100, 101} {
			total := 0
			prevHi := 0
			for r := 0; r < p; r++ {
				lo, hi := Partition(n, p, r)
				if lo != prevHi {
					t.Fatalf("p=%d n=%d: partition gap at rank %d", p, n, r)
				}
				if hi < lo {
					t.Fatalf("p=%d n=%d: negative partition at rank %d", p, n, r)
				}
				total += hi - lo
				prevHi = hi
			}
			if total != n {
				t.Fatalf("p=%d n=%d: partitions cover %d", p, n, total)
			}
		}
	}
}

func TestStatsCounting(t *testing.T) {
	stats := Run(4, func(c *Comm) {
		data := make([]float64, 16)
		c.Allreduce(data, Sum)
	})
	for r, s := range stats {
		if s.Collectives != 1 {
			t.Fatalf("rank %d: collectives %d", r, s.Collectives)
		}
		if s.SentMessages == 0 || s.SentBytes == 0 {
			t.Fatalf("rank %d: no traffic recorded", r)
		}
	}
}

func TestRunPanicsPropagate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate from rank")
		}
	}()
	Run(2, func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}
