package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	pub "repro"
	"repro/internal/firal"
)

// TestStreamSelectExactReturnsTypedError pins the CLI entry point of the
// residency contract: `firal -shards … -select exact` (and the canonical
// registry spelling) must fail with the solver's typed
// firal.ErrResidentPool — so scripts can distinguish "this mode cannot
// exist" from an I/O or flag error — before any file is opened.
func TestStreamSelectExactReturnsTypedError(t *testing.T) {
	for _, sel := range []string{"exact", "Exact-FIRAL", "EXACT"} {
		err := streamSelect(streamConfig{selector: sel})
		if !errors.Is(err, firal.ErrResidentPool) {
			t.Fatalf("-select %s over shards: err = %v, want firal.ErrResidentPool", sel, err)
		}
	}
	// Non-exact unknown selectors keep the generic usage error.
	if err := streamSelect(streamConfig{selector: "entropy"}); err == nil || errors.Is(err, firal.ErrResidentPool) {
		t.Fatalf("-select entropy over shards: err = %v, want a generic usage error", err)
	}
}

// TestStreamSelectorResolution pins that the streaming path resolves
// names through the selector registry: aliases reach the streaming
// solvers instead of being rejected by literal string-matching, and an
// unknown name fails with the full registry listing — the same
// experience as `firal -select help`.
func TestStreamSelectorResolution(t *testing.T) {
	// Registry aliases of the streaming-capable selectors must pass name
	// resolution. With no -labeled file they fail at the next check, whose
	// message names the real gap — not an "unsupported selector" error.
	for _, sel := range []string{"firal", "approx", "Approx-FIRAL", "dist", "distributed-firal"} {
		err := streamSelect(streamConfig{selector: sel})
		if err == nil || !strings.Contains(err.Error(), "-labeled") {
			t.Fatalf("-select %s: err = %v, want the missing -labeled error after alias resolution", sel, err)
		}
	}
	// Unknown names list every registered strategy.
	err := streamSelect(streamConfig{selector: "gradient-boost"})
	if err == nil {
		t.Fatal("unknown selector accepted")
	}
	for _, name := range pub.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-selector error %q does not list %s", err, name)
		}
	}
}

// TestStreamSelectRankFlagsNeedPeers pins that the multi-process flags
// are refused, not ignored, where they would do nothing: -peers outside
// dist-firal, and the per-rank flags without -peers.
func TestStreamSelectRankFlagsNeedPeers(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  streamConfig
		want string
	}{
		{"approx with peers", streamConfig{selector: "approx-firal", peers: "127.0.0.1:9907"}, "-peers"},
		{"rank without peers", streamConfig{selector: "dist-firal", rank: 1}, "need -peers"},
		{"op-timeout without peers", streamConfig{selector: "dist-firal", opTimeout: time.Second}, "need -peers"},
		{"kill-after without peers", streamConfig{selector: "dist-firal", killAfter: 3}, "need -peers"},
	} {
		if err := streamSelect(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}
