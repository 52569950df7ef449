package perfmodel

import (
	"fmt"
	"strings"
)

// Complexity formulas of Tables II and III, evaluated numerically. These
// back the complexity-table printers in cmd/ and the scaling assertions in
// tests (storage and work must match the paper's asymptotics).

// ExactStorage is Exact-FIRAL's storage O(c²d² + n c² d) in words.
func ExactStorage(n, d, c int) float64 {
	nf, df, cf := float64(n), float64(d), float64(c)
	return cf*cf*df*df + nf*cf*cf*df
}

// ApproxRelaxStorage is the fast RELAX storage O(n(d + sc) + cd²) per
// Table II (including the probe block and preconditioner).
func ApproxRelaxStorage(n, d, c, s int) float64 {
	nf, df, cf, sf := float64(n), float64(d), float64(c), float64(s)
	return nf*(df+sf*cf) + cf*df*df
}

// ExactRelaxWork is Exact-FIRAL's RELAX work O(nrelax·n·c³·d²).
func ExactRelaxWork(nrelax, n, d, c int) float64 {
	return float64(nrelax) * float64(n) * float64(c) * float64(c) * float64(c) * float64(d) * float64(d)
}

// ApproxRelaxWork is the fast RELAX work O(nrelax·n·c·d·(d + nCG·s)).
func ApproxRelaxWork(nrelax, n, d, c, ncg, s int) float64 {
	return float64(nrelax) * float64(n) * float64(c) * float64(d) * (float64(d) + float64(ncg)*float64(s))
}

// ExactRoundWork is Exact-FIRAL's ROUND work O(b·c³·(d³ + n)).
func ExactRoundWork(b, n, d, c int) float64 {
	cf, df := float64(c), float64(d)
	return float64(b) * cf * cf * cf * (df*df*df + float64(n))
}

// ApproxRoundWork is the diagonal ROUND work O(b·n·c·d²).
func ApproxRoundWork(b, n, d, c int) float64 {
	return float64(b) * float64(n) * float64(c) * float64(d) * float64(d)
}

// DirectMatvecWork and FastMatvecWork are the Table III per-point matvec
// costs (O(d²c²) vs O(dc)).
func DirectMatvecWork(d, c int) float64 { return float64(d) * float64(d) * float64(c) * float64(c) }

// FastMatvecWork is the Lemma-2 matvec cost per point.
func FastMatvecWork(d, c int) float64 { return float64(d) * float64(c) }

// FormatTableII renders Table II for concrete sizes, reporting the
// speedup/storage ratios the approximation buys.
func FormatTableII(nrelax, b, n, d, c, ncg, s int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table II (n=%d d=%d c=%d b=%d nrelax=%d nCG=%d s=%d)\n", n, d, c, b, nrelax, ncg, s)
	fmt.Fprintf(&sb, "%-22s %14s %14s %10s\n", "quantity", "Exact-FIRAL", "Approx-FIRAL", "ratio")
	row := func(name string, exact, approx float64) {
		fmt.Fprintf(&sb, "%-22s %14.3g %14.3g %9.1fx\n", name, exact, approx, exact/approx)
	}
	row("storage (words)", ExactStorage(n, d, c), ApproxRelaxStorage(n, d, c, s))
	row("relax work (flops)", ExactRelaxWork(nrelax, n, d, c), ApproxRelaxWork(nrelax, n, d, c, ncg, s))
	row("round work (flops)", ExactRoundWork(b, n, d, c), ApproxRoundWork(b, n, d, c))
	return sb.String()
}

// FormatTableIII renders the matvec comparison of Table III.
func FormatTableIII(d, c int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table III (d=%d c=%d): per-point Hessian matvec\n", d, c)
	fmt.Fprintf(&sb, "%-14s %12s %12s\n", "method", "storage", "compute")
	fmt.Fprintf(&sb, "%-14s %12.3g %12.3g\n", "direct", DirectMatvecWork(d, c), DirectMatvecWork(d, c))
	fmt.Fprintf(&sb, "%-14s %12.3g %12.3g\n", "fast (Lemma 2)", FastMatvecWork(d, c), FastMatvecWork(d, c))
	return sb.String()
}
