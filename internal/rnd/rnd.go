// Package rnd provides seeded random-number utilities used throughout the
// reproduction: Rademacher probes for Hutchinson trace estimation, Gaussian
// samples for the synthetic embeddings, and permutations for data splits.
package rnd

import (
	"math"
	"math/rand"
)

// Source wraps math/rand with the sampling helpers the reproduction needs.
// A Source is not safe for concurrent use.
type Source struct {
	*rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{rand.New(rand.NewSource(seed))}
}

// Rademacher fills dst with independent ±1 entries.
func (s *Source) Rademacher(dst []float64) {
	for i := range dst {
		if s.Int63()&1 == 0 {
			dst[i] = 1
		} else {
			dst[i] = -1
		}
	}
}

// Normal fills dst with independent N(mean, std²) samples.
func (s *Source) Normal(dst []float64, mean, std float64) {
	for i := range dst {
		dst[i] = mean + std*s.NormFloat64()
	}
}

// UnitVector fills dst with a uniformly random point on the unit sphere.
func (s *Source) UnitVector(dst []float64) {
	for {
		s.Normal(dst, 0, 1)
		var n float64
		for _, v := range dst {
			n += v * v
		}
		if n > 1e-24 {
			n = 1 / math.Sqrt(n)
			for i := range dst {
				dst[i] *= n
			}
			return
		}
	}
}

// Choice returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n.
func (s *Source) Choice(n, k int) []int {
	if k > n {
		panic("rnd: Choice k > n")
	}
	perm := s.Perm(n)
	return perm[:k]
}

// WeightedChoice returns an index drawn with probability proportional to
// w[i]. Weights must be non-negative and not all zero; otherwise it falls
// back to uniform.
func (s *Source) WeightedChoice(w []float64) int {
	var total float64
	for _, v := range w {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		return s.Intn(len(w))
	}
	u := s.Float64() * total
	var acc float64
	for i, v := range w {
		if v <= 0 {
			continue
		}
		acc += v
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}
