#!/usr/bin/env bash
# arm64_fma.sh: fail if Go's arm64 compiler fused a multiply and an add in
# the loops that keep them separate.
#
# Go may compute x*y + z as one fused multiply-add (FMADDD, FMSUBD,
# FNMADDD, FNMSUBD on arm64), even across statements, unless float64(x*y)
# rounds the product. The amd64 compiler never fuses on its own, so these
# loops round each product explicitly to get amd64's bits on arm64 too:
# the internal/mat functions listed below, and every function of the
# solver packages above them (hessian, firal, krylov), whose sweeps carry
# inline copies of mat.Dot's order. The fused multiply-adds the mat
# kernels want are spelled fma(x, y, z) and live in other functions. The
# check compiles internal/firal and its dependencies for arm64 with the
# assembly listing, and also fails when a listed function is missing from
# the listing, so a renamed function cannot pass by silence.
#
# Run from the repository root: scripts/arm64_fma.sh
set -euo pipefail

funcs='rot rotGo symRank2 symRank2Go rank1Sub rank1SubGo tql tred2 refMulRange
(*Cholesky).factor (*Cholesky).SolveVec (*LU).SolveVec NewLU
(*Dense).AddScaled (*Dense).AddOuter FrobDot Dot Nrm2 Axpy Kron'
whole='hessian firal krylov'

flags=(-gcflags=repro/internal/mat=-S)
for p in $whole; do
	flags+=(-gcflags=repro/internal/$p=-S)
done

GOARCH=arm64 go build -a "${flags[@]}" -o /dev/null ./internal/firal 2>&1 |
	awk -v funcs="$funcs" -v whole="$whole" '
	BEGIN {
		n = split(funcs, f, /[ \n]+/)
		for (i = 1; i <= n; i++) want["mat." f[i]] = 1
		n = split(whole, f, / /)
		for (i = 1; i <= n; i++) pkg[f[i]] = 1
	}
	/^repro\/internal\/[a-z]+\.[^ ]+ STEXT/ {
		fn = $1
		sub(/^repro\/internal\//, "", fn)
		p = fn
		sub(/\..*/, "", p)
		check = (fn in want) || (p in pkg)
		if (fn in want) seen[fn] = 1
		if (p in pkg) seenPkg[p] = 1
	}
	/\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\t/ && check { print fn ": fused: " $0; bad = 1 }
	END {
		for (g in want) if (!(g in seen)) { print g ": not in the assembly listing"; bad = 1 }
		for (g in pkg) if (!(g in seenPkg)) { print g ": not in the assembly listing"; bad = 1 }
		exit bad
	}'
