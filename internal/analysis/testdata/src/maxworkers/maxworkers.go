// Package maxworkers exercises the maxworkers analyzer: SetMaxWorkers
// is confined to internal/parallel, package main and tests.
package maxworkers

import "repro/internal/parallel"

func setMaxOutsideMain() {
	parallel.SetMaxWorkers(4) // want "SetMaxWorkers is process-wide"
}

func allowedSetMax() {
	parallel.SetMaxWorkers(4) //firal:allow(limit) single-process benchmark driver
}

func allowedAbove() {
	//firal:allow(limit) — the statement below is suppressed too
	parallel.SetMaxWorkers(4)
}

// readingIsFine: only setting the count is confined.
func readingIsFine() int { return parallel.Workers() }
