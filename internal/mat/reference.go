package mat

// The reference (unblocked) product: the straightforward row-sweep loop
// the blocked kernels of gemm.go replaced. It serves Mul's small-matrix
// path, where packing overhead would dominate, and cmd/firal-bench times
// RefMul as the baseline of the blocked GEMM. The other reference kernels,
// test oracles only, live in reference_test.go.

// RefMul computes dst = a*b with the unblocked row-sweep kernel (serial).
func RefMul(dst, a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic("mat: Mul inner dimension mismatch")
	}
	dst = prepDst(dst, a.Rows, b.Cols)
	refMulRange(dst, a, b, 0, a.Rows)
	return dst
}

func refMulRange(dst, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a.Row(i)
		dr := dst.Row(i)
		for j := range dr {
			dr[j] = 0
		}
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
}
