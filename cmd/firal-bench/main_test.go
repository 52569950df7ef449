package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDiffAgainst pins the baseline diff: a baseline row with no fresh
// result fails, matching rows pass within the ns/op factor and the
// allocation slack and fail beyond either, a sweep row's one-worker time
// is held to the same factor and must be present when the baseline has
// it, and a fresh row with no baseline is not diffed.
func TestDiffAgainst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	base := report{Results: []entry{
		{Name: "a", NsPerOp: 100, AllocsPerOp: 40},
		{Name: "b", NsPerOp: 200, AllocsPerOp: 0},
		{Name: "s", NsPerOp: 50, Extra: map[string]float64{"workers1_ns": 80}},
	}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// s1 is a fresh sweep row "s" with its one-worker time.
	s1 := func(ns, ns1 float64) entry {
		return entry{Name: "s", NsPerOp: ns, Extra: map[string]float64{"workers1_ns": ns1}}
	}
	for _, tc := range []struct {
		name  string
		fresh []entry
		want  string // substring of the error; "" means the diff passes
	}{
		{"all within bounds", []entry{{Name: "a", NsPerOp: 1000, AllocsPerOp: 50}, {Name: "b", NsPerOp: 150, AllocsPerOp: 8}, s1(500, 800)}, ""},
		{"new row not diffed", []entry{{Name: "a", NsPerOp: 100}, {Name: "b", NsPerOp: 200}, s1(50, 80), {Name: "c", NsPerOp: 1e12, AllocsPerOp: 1e6}}, ""},
		{"missing row", []entry{{Name: "a", NsPerOp: 100, AllocsPerOp: 40}, s1(50, 80)}, "b: in the baseline but not run"},
		{"too slow", []entry{{Name: "a", NsPerOp: 1001, AllocsPerOp: 40}, {Name: "b", NsPerOp: 200}, s1(50, 80)}, "a: 1001 ns/op exceeds"},
		{"too many allocs", []entry{{Name: "a", NsPerOp: 100, AllocsPerOp: 40}, {Name: "b", NsPerOp: 200, AllocsPerOp: 9}, s1(50, 80)}, "b: 9 allocs/op exceeds"},
		{"one worker too slow", []entry{{Name: "a", NsPerOp: 100}, {Name: "b", NsPerOp: 200}, s1(50, 801)}, "s: workers1_ns 801 exceeds"},
		{"one worker time missing", []entry{{Name: "a", NsPerOp: 100}, {Name: "b", NsPerOp: 200}, {Name: "s", NsPerOp: 50}}, "s: the baseline has workers1_ns but the run does not"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := diffAgainst(path, report{Results: tc.fresh}, 10)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected failure: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("passed, want a failure containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
