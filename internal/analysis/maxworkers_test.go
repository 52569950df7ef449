package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analyzertest"
)

func TestMaxWorkers(t *testing.T) {
	analyzertest.Run(t, analyzertest.TestData(t), analysis.MaxWorkers,
		"maxworkers", "maxworkers/main")
}
