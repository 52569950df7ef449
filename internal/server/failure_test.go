package server

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/hessian"
	"repro/internal/mat"
)

// faultySource wraps a pool source: from read call failFrom on, every
// read fails (like a shard that became unreadable mid-round), and while
// panicRow is set every single-row read panics.
type faultySource struct {
	dataset.PoolSource
	calls    atomic.Int64
	failFrom int64 // reads from this call on fail; 0 never
	panicRow atomic.Bool
}

func (f *faultySource) ReadRows(lo, hi int, dst *mat.Dense) error {
	if hi-lo == 1 && f.panicRow.Load() {
		panic(fmt.Sprintf("injected panic reading row %d", lo))
	}
	if n := f.calls.Add(1); f.failFrom > 0 && n >= f.failFrom {
		return fmt.Errorf("injected read failure at rows [%d, %d)", lo, hi)
	}
	return f.PoolSource.ReadRows(lo, hi, dst)
}

// swapSource puts f's wrapper around the session's pool.
func swapSource(t *testing.T, srv *Server, id string, f *faultySource) {
	t.Helper()
	sess, err := srv.session(id)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	f.PoolSource = sess.src
	sess.src = dataset.NewLiveSource(f)
}

// selectedOf fetches a done round's selection.
func selectedOf(a *api, id string, round int) []int {
	var sel struct {
		Selected []int `json:"selected"`
	}
	a.must(http.StatusOK, "GET", fmt.Sprintf("/v1/sessions/%s/rounds/%d/selected", id, round), nil, &sel)
	return sel.Selected
}

// TestRoundReadFailure fails a pool read in the middle of a round's
// selection, serially (Ranks 0) and on two in-process ranks. The round
// must end failed with the pool-read error, the admission slot must come
// back, the daemon must keep answering, and a session selecting
// concurrently must get the selection it gets alone. The pools span two
// dataset.DefaultBlockRows blocks per rank, so the selection's sweeps
// read ahead.
func TestRoundReadFailure(t *testing.T) {
	const n = 2*dataset.DefaultBlockRows + 300
	dir := t.TempDir()
	shard, labX, labY := testPool(t, dir, n, 5, 3, 61)
	healthy, hX, hY := testPool(t, dir, n, 5, 3, 62)
	for _, ranks := range []int{0, 2} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			selector := "Approx-FIRAL"
			if ranks > 0 {
				selector = "Dist-FIRAL"
			}
			create := func(a *api, shard string, x [][]float64, y []int) string {
				var sv sessionView
				a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
					Shards: []string{shard}, Labeled: labeledUpload{X: x, Y: y},
					Selector: selector, Probes: 3, FixedRelaxIters: 4, Seed: 5,
				}, &sv)
				return sv.ID
			}

			_, ref := newTestServer(t, Config{Ranks: ranks})
			refID := create(ref, healthy, hX, hY)
			ref.must(http.StatusAccepted, "POST", "/v1/sessions/"+refID+"/rounds", &roundRequest{Budget: 4}, nil)
			if rv := ref.waitRound(refID, 1, 60*time.Second); rv.Status != RoundDone {
				t.Fatalf("reference round ended %s: %s", rv.Status, rv.Error)
			}
			want := selectedOf(ref, refID, 1)

			srv, a := newTestServer(t, Config{Ranks: ranks, Concurrency: 2})
			bad := create(a, shard, labX, labY)
			good := create(a, healthy, hX, hY)
			// The probability pass reads the pool in 3 blocks, the last
			// one ragged; the selection's sweeps fail from the 8th read on.
			swapSource(t, srv, bad, &faultySource{failFrom: 8})
			a.must(http.StatusAccepted, "POST", "/v1/sessions/"+bad+"/rounds", &roundRequest{Budget: 4}, nil)
			a.must(http.StatusAccepted, "POST", "/v1/sessions/"+good+"/rounds", &roundRequest{Budget: 4}, nil)

			rv := a.waitRound(bad, 1, 60*time.Second)
			if rv.Status != RoundFailed || !strings.Contains(rv.Error, hessian.ErrPoolRead.Error()) {
				t.Fatalf("faulty round ended %s with %q, want failed with %q", rv.Status, rv.Error, hessian.ErrPoolRead)
			}
			if rv := a.waitRound(good, 1, 60*time.Second); rv.Status != RoundDone {
				t.Fatalf("concurrent round ended %s: %s", rv.Status, rv.Error)
			}
			if got := selectedOf(a, good, 1); !reflect.DeepEqual(got, want) {
				t.Fatalf("concurrent session selected %v, alone %v", got, want)
			}
			a.must(http.StatusOK, "GET", "/v1/healthz", nil, nil)
			if running, queued := srv.adm.Stats(); running != 0 || queued != 0 {
				t.Fatalf("admission holds %d running, %d queued after both rounds ended", running, queued)
			}
		})
	}
}

// TestRoundPanic injects a panic on the round goroutine: selectOnce
// reads each index-labeled row there with a single-row ReadRows. The
// round must end failed with the panic, and the daemon must keep serving
// the session's next round.
func TestRoundPanic(t *testing.T) {
	shard, labX, labY := testPool(t, t.TempDir(), 120, 4, 2, 63)
	srv, a := newTestServer(t, Config{})
	var sv sessionView
	a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
		Shards: []string{shard}, Labeled: labeledUpload{X: labX, Y: labY},
		Probes: 3, FixedRelaxIters: 2, Seed: 7,
	}, &sv)
	a.must(http.StatusOK, "POST", "/v1/sessions/"+sv.ID+"/labels", &labelsRequest{
		Pool: []IndexLabel{{Index: 5, Label: 1}},
	}, nil)
	f := &faultySource{}
	f.panicRow.Store(true)
	swapSource(t, srv, sv.ID, f)
	a.must(http.StatusAccepted, "POST", "/v1/sessions/"+sv.ID+"/rounds", &roundRequest{Budget: 3}, nil)
	rv := a.waitRound(sv.ID, 1, 30*time.Second)
	if rv.Status != RoundFailed || !strings.HasPrefix(rv.Error, "panic: injected panic reading row 5") {
		t.Fatalf("round ended %s with %q, want failed with the injected panic", rv.Status, rv.Error)
	}
	a.must(http.StatusOK, "GET", "/v1/healthz", nil, nil)

	f.panicRow.Store(false)
	a.must(http.StatusAccepted, "POST", "/v1/sessions/"+sv.ID+"/rounds", &roundRequest{Budget: 3}, nil)
	if rv := a.waitRound(sv.ID, 2, 30*time.Second); rv.Status != RoundDone {
		t.Fatalf("round after the panic ended %s: %s", rv.Status, rv.Error)
	}
}
