//go:build !386

package mat

import "math"

// fma is math.FMA, x·y + z rounded once: the one fused multiply-add of
// every portable product, dot, axpy, Gram and norm loop. The compiler
// turns it into the FMA instruction where the architecture has one (on
// amd64 behind a CPU check); on 386 it never does, so fma_386.go
// supplies its own.
func fma(x, y, z float64) float64 { return math.FMA(x, y, z) }
