package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/parallel"
)

// TestRoundIndependentOfConcurrentLimit runs the same session's first
// round twice on fresh servers: once at four workers and once with the
// process set to one worker. The selections and the warm-start
// checkpoint, the raw bits of the RELAX weights, must be identical: the
// worker count changes speed, never a selection.
func TestRoundIndependentOfConcurrentLimit(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(4))
	shard, labX, labY := testPool(t, t.TempDir(), 2000, 16, 4, 61)
	run := func(workers int) (roundView, []byte) {
		parallel.SetMaxWorkers(workers)
		srv, a := newTestServer(t, Config{})
		var sv sessionView
		a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
			Shards:          []string{shard},
			Labeled:         labeledUpload{X: labX, Y: labY},
			Seed:            5,
			Probes:          4,
			FixedRelaxIters: 5,
		}, &sv)
		a.must(http.StatusAccepted, "POST", "/v1/sessions/"+sv.ID+"/rounds",
			&roundRequest{Budget: 4}, &map[string]any{})
		rv := a.waitRound(sv.ID, 1, 60*time.Second)
		if rv.Status != RoundDone {
			t.Fatalf("%d workers: round 1 %s (%s)", workers, rv.Status, rv.Error)
		}
		sess, err := srv.session(sv.ID)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := os.ReadFile(statePath(sess.dir))
		if err != nil {
			t.Fatal(err)
		}
		return rv, warm
	}
	four, warmFour := run(4)
	one, warmOne := run(1)
	if four.WorkersObserved != 4 || one.WorkersObserved != 1 {
		t.Fatalf("rounds observed %d and %d workers, want 4 and 1", four.WorkersObserved, one.WorkersObserved)
	}
	if fmt.Sprint(one.Selected) != fmt.Sprint(four.Selected) {
		t.Fatalf("selected %v at 1 worker, %v at 4", one.Selected, four.Selected)
	}
	if !bytes.Equal(warmOne, warmFour) {
		t.Fatalf("state file differs between 1 and 4 workers (%d bytes vs %d)", len(warmOne), len(warmFour))
	}
}

// TestSessionWorkersField pins the removal of the per-session worker
// count: a create request that still names it is refused with the field
// in the error, and a session.json written while the field existed still
// recovers and runs its queued round. That file also names the removed
// block_rows, which loads the same way: the round runs at the default
// row-block size.
func TestSessionWorkersField(t *testing.T) {
	shard, labX, labY := testPool(t, t.TempDir(), 300, 6, 3, 71)
	create := map[string]any{
		"shards":            []string{shard},
		"labeled":           labeledUpload{X: labX, Y: labY},
		"seed":              3,
		"probes":            4,
		"fixed_relax_iters": 3,
	}

	t.Run("create rejects workers", func(t *testing.T) {
		_, a := newTestServer(t, Config{})
		req := map[string]any{"workers": 2}
		for k, v := range create {
			req[k] = v
		}
		var e struct {
			Error string `json:"error"`
		}
		if code := a.do("POST", "/v1/sessions", req, &e); code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400 (%s)", code, e.Error)
		}
		if !strings.Contains(e.Error, `"workers"`) {
			t.Fatalf("error %q does not name the workers field", e.Error)
		}
	})

	t.Run("legacy session.json recovers", func(t *testing.T) {
		// Reference: the same session's round 1 on a fresh server.
		_, ref := newTestServer(t, Config{})
		var refSess sessionView
		ref.must(http.StatusCreated, "POST", "/v1/sessions", create, &refSess)
		ref.must(http.StatusAccepted, "POST", "/v1/sessions/"+refSess.ID+"/rounds", &roundRequest{Budget: 4}, nil)
		want := ref.waitRound(refSess.ID, 1, 60*time.Second)
		if want.Status != RoundDone {
			t.Fatalf("reference round: %s %s", want.Status, want.Error)
		}

		dataDir := t.TempDir()
		srv, err := New(Config{DataDir: dataDir})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		a := &api{t: t, base: hs.URL}
		var sv sessionView
		a.must(http.StatusCreated, "POST", "/v1/sessions", create, &sv)
		hs.Close()
		srv.Close()

		// Rewrite session.json as the daemon wrote it while sessions
		// carried a worker count and a block size, with round 1 queued at
		// the crash.
		path := filepath.Join(dataDir, sv.ID, "session.json")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var meta map[string]any
		if err := json.Unmarshal(raw, &meta); err != nil {
			t.Fatal(err)
		}
		meta["workers"] = 2
		meta["block_rows"] = 32
		meta["rounds"] = []map[string]any{{"round": 1, "budget": 4, "status": RoundQueued}}
		if raw, err = json.Marshal(meta); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		srv2, err := New(Config{DataDir: dataDir})
		if err != nil {
			t.Fatal(err)
		}
		hs2 := httptest.NewServer(srv2.Handler())
		t.Cleanup(func() { hs2.Close(); srv2.Close() })
		a2 := &api{t: t, base: hs2.URL}
		got := a2.waitRound(sv.ID, 1, 60*time.Second)
		if got.Status != RoundDone {
			t.Fatalf("recovered round: %s %s", got.Status, got.Error)
		}
		if fmt.Sprint(got.Selected) != fmt.Sprint(want.Selected) {
			t.Fatalf("recovered round selected %v, fresh session %v", got.Selected, want.Selected)
		}
	})
}
