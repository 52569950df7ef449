// Package hessian is a fixture stub for repro/internal/hessian.
package hessian

type Workspace struct{}

type Dense struct{ Rows, Cols int }

type Pool interface {
	N() int
	Block(ws *Workspace, lo, hi int) *Dense
}

func MatVecBlockWS(ws *Workspace, p Pool, dst, v *Dense, w []float64) {}

func QuadAccumBlockWS(ws *Workspace, p Pool, dst []float64, u, v *Dense, scale float64) {}

func BlockDiagSumInto(ws *Workspace, p Pool, blocks []*Dense, w []float64) []*Dense { return blocks }
