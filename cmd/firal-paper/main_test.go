package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestAnalyticTablesMatchGolden pins the deterministic outputs byte for
// byte: the analytic Tables II/III and the Table V dataset summary, as
// the separate firal-time and firal-accuracy binaries printed them, and
// a small Fig. 1 run (both CG residual series and the condition numbers).
func TestAnalyticTablesMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"time_tables.golden", []string{"time", "-tables"}},
		{"accuracy_table5.golden", []string{"accuracy", "-table5"}},
		{"cg_fig1.golden", []string{"cg", "-dataset", "CIFAR-10", "-scale", "0.05"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run(context.Background(), tc.args, &got); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%v output differs from %s:\n%s", tc.args, tc.golden, got.String())
		}
	}
}

// TestBadValuesAreUsageErrors: an unknown experiment, -mode, -sweep,
// -step, -set or dataset is rejected before any work starts, as a usage
// error (exit status 2).
func TestBadValuesAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"scaling", "-mode", "wek"},
		{"scaling", "-step", "both"},
		{"single", "-sweep", "x"},
		{"single", "-step", "both"},
		{"single", "-values", "8,x"},
		{"accuracy", "-set", "medium"},
		{"cg", "-dataset", "nope"},
		{"time", "-nosuchflag"},
	} {
		var out bytes.Buffer
		err := run(context.Background(), args, &out)
		var ue usageError
		if !errors.As(err, &ue) {
			t.Errorf("%v: got %v, want a usage error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q before rejecting", args, out.String())
		}
	}
}
