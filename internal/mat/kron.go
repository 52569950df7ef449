package mat

// Kron returns the Kronecker product a ⊗ b. It materializes the full
// (ra·rb)×(ca·cb) matrix and is used by Exact-FIRAL's dense Hessian
// assembly (Eq. 2) and by tests validating the matrix-free fast matvec of
// Lemma 2 against the dense operator.
func Kron(a, b *Dense) *Dense {
	out := NewDense(a.Rows*b.Rows, a.Cols*b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			v := a.At(i, j)
			if v == 0 {
				continue
			}
			for p := 0; p < b.Rows; p++ {
				dst := out.Row(i*b.Rows + p)
				src := b.Row(p)
				off := j * b.Cols
				for q, bv := range src {
					dst[off+q] += float64(v * bv)
				}
			}
		}
	}
	return out
}

// Block returns a copy of the d×d block (k, l) of a block-structured
// square matrix m whose blocks are d×d (so m is (cd)×(cd)). Definition 1
// in the paper takes the diagonal blocks k = l.
func Block(m *Dense, k, l, d int) *Dense {
	out := NewDense(d, d)
	for i := 0; i < d; i++ {
		src := m.Row(k*d + i)
		copy(out.Row(i), src[l*d:(l+1)*d])
	}
	return out
}

// SetBlock writes the d×d matrix b into block (k, l) of m.
func SetBlock(m *Dense, k, l, d int, b *Dense) {
	for i := 0; i < d; i++ {
		dst := m.Row(k*d + i)
		copy(dst[l*d:(l+1)*d], b.Row(i))
	}
}

// BlockDiag assembles a (cd)×(cd) block-diagonal matrix from c blocks of
// size d×d.
func BlockDiag(blocks []*Dense) *Dense {
	if len(blocks) == 0 {
		return NewDense(0, 0)
	}
	d := blocks[0].Rows
	c := len(blocks)
	out := NewDense(c*d, c*d)
	for k, b := range blocks {
		SetBlock(out, k, k, d, b)
	}
	return out
}
