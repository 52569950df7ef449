package server

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/parallel"
)

// TestRoundIndependentOfConcurrentLimit runs the same session's first
// round twice on fresh servers: once alone at four workers, and once
// while the test holds a 1-worker limit, which stands in for a concurrent
// tenant created with workers: 1 (every round running beside it is capped
// at its limit). The selections and the warm-start checkpoint, the raw
// bits of the RELAX weights, must be identical.
func TestRoundIndependentOfConcurrentLimit(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(4))
	shard, labX, labY := testPool(t, t.TempDir(), 2000, 16, 4, 61)
	run := func(limit bool) (roundView, []byte) {
		if limit {
			l := parallel.AcquireLimit(1)
			defer l.Release()
		}
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
			t.Fatalf("limit=%v: round 1 %s (%s)", limit, rv.Status, rv.Error)
		}
		sess, err := srv.session(sv.ID)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := os.ReadFile(warmPath(sess.dir))
		if err != nil {
			t.Fatal(err)
		}
		return rv, warm
	}
	alone, warmAlone := run(false)
	limited, warmLimited := run(true)
	if alone.WorkersObserved != 4 || limited.WorkersObserved != 1 {
		t.Fatalf("rounds observed %d and %d workers, want 4 alone and 1 under the limit", alone.WorkersObserved, limited.WorkersObserved)
	}
	if fmt.Sprint(limited.Selected) != fmt.Sprint(alone.Selected) {
		t.Fatalf("selected %v under a 1-worker limit, %v alone", limited.Selected, alone.Selected)
	}
	if !bytes.Equal(warmLimited, warmAlone) {
		t.Fatalf("warm.ckpt differs under a 1-worker limit (%d bytes vs %d alone)", len(warmLimited), len(warmAlone))
	}
}
