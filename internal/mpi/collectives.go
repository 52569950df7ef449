package mpi

// Op is a reduction operator for Allreduce.
type Op int

// Supported reduction operators.
const (
	Sum Op = iota
	Max
	Min
)

func (op Op) reduce(dst, src []float64) {
	switch op {
	case Sum:
		for i, v := range src {
			dst[i] += v
		}
	case Max:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case Min:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic("mpi: unknown reduction op")
	}
}

// Allreduce reduces data element-wise across all ranks and leaves the
// result in data on every rank. Power-of-two rank counts use recursive
// doubling (log p steps, the paper's MPI_Allreduce model ❶); other counts
// use a bandwidth-optimal ring reduce-scatter + ring allgather, which also
// covers the paper's 3-, 6- and 12-GPU configurations.
func (c *Comm) Allreduce(data []float64, op Op) {
	p := c.Size()
	tag := c.nextCollTag()
	if p == 1 {
		return
	}
	if p&(p-1) == 0 {
		c.allreduceRecursiveDoubling(tag, data, op)
		return
	}
	c.allreduceRing(tag, data, op)
}

func (c *Comm) allreduceRecursiveDoubling(tag int, data []float64, op Op) {
	p := c.Size()
	rank := c.Rank()
	for mask := 1; mask < p; mask <<= 1 {
		partner := rank ^ mask
		c.exchangeReduce(partner, partner, tag, data, data, op)
	}
}

func (c *Comm) allreduceRing(tag int, data []float64, op Op) {
	p := c.Size()
	rank := c.Rank()
	n := len(data)
	bound := func(i int) int { return i * n / p }
	chunk := func(i int) []float64 {
		i = ((i % p) + p) % p
		return data[bound(i):bound(i+1)]
	}
	right := (rank + 1) % p
	left := (rank - 1 + p) % p
	// Reduce-scatter: after p-1 steps, this rank owns the fully reduced
	// chunk (rank+1) mod p. Per step, chunk(rank-step) goes right while
	// the left neighbour's copy of chunk(rank-step-1) is reduced in.
	for step := 0; step < p-1; step++ {
		c.exchangeReduce(right, left, tag, chunk(rank-step), chunk(rank-step-1), op)
	}
	// Ring allgather of the reduced chunks.
	for step := 0; step < p-1; step++ {
		c.send(right, tag, chunk(rank+1-step))
		recvIdx := rank - step
		copy(chunk(recvIdx), c.recv(left, tag))
	}
}

// exchangeReduce sends sendSeg to rank to and reduces the matching
// segment arriving from rank from into redSeg (the two are the same
// slice in recursive doubling: safe, because the transport deep-copies
// on send).
func (c *Comm) exchangeReduce(to, from, tag int, sendSeg, redSeg []float64, op Op) {
	c.send(to, tag, sendSeg)
	op.reduce(redSeg, c.recv(from, tag))
}

// AllreduceScalar reduces a single value across all ranks.
func (c *Comm) AllreduceScalar(v float64, op Op) float64 {
	buf := []float64{v}
	c.Allreduce(buf, op)
	return buf[0]
}

// Allgather concatenates equal-length blocks from every rank, ordered by
// rank (ring algorithm, p−1 steps). It returns a slice of length
// p·len(local).
func (c *Comm) Allgather(local []float64) []float64 {
	p := c.Size()
	rank := c.Rank()
	tag := c.nextCollTag()
	bl := len(local)
	out := make([]float64, p*bl)
	copy(out[rank*bl:(rank+1)*bl], local)
	if p == 1 {
		return out
	}
	right := (rank + 1) % p
	left := (rank - 1 + p) % p
	for step := 0; step < p-1; step++ {
		sendIdx := ((rank-step)%p + p) % p
		recvIdx := ((rank-step-1)%p + p) % p
		c.send(right, tag, out[sendIdx*bl:(sendIdx+1)*bl])
		copy(out[recvIdx*bl:(recvIdx+1)*bl], c.recv(left, tag))
	}
	return out
}

// Allgatherv concatenates variable-length blocks from every rank, ordered
// by rank. It returns the concatenation and the per-rank counts. This is
// the MPI_Allgather of Algorithm 3 line 9, where each rank contributes the
// eigenvalues of its c/p blocks (c may not divide evenly).
func (c *Comm) Allgatherv(local []float64) ([]float64, []int) {
	p := c.Size()
	rank := c.Rank()
	// Exchange counts first (small allgather).
	countsF := c.Allgather([]float64{float64(len(local))})
	counts := make([]int, p)
	offs := make([]int, p+1)
	for i, v := range countsF {
		counts[i] = int(v)
		offs[i+1] = offs[i] + counts[i]
	}
	tag := c.nextCollTag()
	out := make([]float64, offs[p])
	copy(out[offs[rank]:offs[rank+1]], local)
	if p == 1 {
		return out, counts
	}
	right := (rank + 1) % p
	left := (rank - 1 + p) % p
	for step := 0; step < p-1; step++ {
		sendIdx := ((rank-step)%p + p) % p
		recvIdx := ((rank-step-1)%p + p) % p
		c.send(right, tag, out[offs[sendIdx]:offs[sendIdx+1]])
		copy(out[offs[recvIdx]:offs[recvIdx+1]], c.recv(left, tag))
	}
	return out, counts
}

// AllreduceMaxLoc returns the globally maximal value and the rank-local
// location data associated with it (val, ownerRank, loc). Ties break
// toward the smallest owner rank, then smallest loc, so all ranks agree
// deterministically. This backs the ROUND step's global argmax (§ III-C,
// MPI_Allreduce usage ❶ for the objective).
func (c *Comm) AllreduceMaxLoc(val float64, loc int) (float64, int, int) {
	p := c.Size()
	packed := c.Allgather([]float64{val, float64(loc)})
	bestRank, bestLoc := 0, int(packed[1])
	bestVal := packed[0]
	for r := 1; r < p; r++ {
		v, l := packed[2*r], int(packed[2*r+1])
		if v > bestVal || (v == bestVal && r < bestRank) {
			bestVal, bestRank, bestLoc = v, r, l
		}
	}
	return bestVal, bestRank, bestLoc
}

// Partition computes this rank's contiguous share [lo, hi) of n items
// distributed as evenly as possible across all ranks (the "evenly
// distributing h_i and x_i of n points across p GPUs" of § III-C).
func Partition(n, size, rank int) (lo, hi int) {
	lo = rank * n / size
	hi = (rank + 1) * n / size
	return lo, hi
}
