package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
)

// appendShard packs n synthetic rows into a fresh shard file and returns
// its path.
func appendShard(t *testing.T, dir string, n, d, c int, seed int64) string {
	t.Helper()
	ds := dataset.Generate(dataset.Config{
		Classes: c, Dim: d, PoolSize: n, EvalSize: c, InitPerClass: 3,
		Rounds: 1, Budget: 1,
	}, seed)
	shard := filepath.Join(dir, fmt.Sprintf("extra-%d.shard", seed))
	w, err := dataset.CreateShard(shard, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock(ds.PoolX); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return shard
}

// TestRefusedCSVAppendLeavesNoShard appends an inline CSV of 3 columns
// to a 4-dimensional pool. The CSV packs into the session directory
// before the pool refuses it; after the 400 the directory must list the
// same files as before the request, and a valid append must still work.
func TestRefusedCSVAppendLeavesNoShard(t *testing.T) {
	dir := t.TempDir()
	shard, labX, labY := testPool(t, dir, 60, 4, 3, 25)
	srv, a := newTestServer(t, Config{})
	var sv sessionView
	a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
		Shards:  []string{shard},
		Labeled: labeledUpload{X: labX, Y: labY},
		Seed:    7,
		Probes:  4,
	}, &sv)
	sess, err := srv.session(sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	list := func() []string {
		t.Helper()
		ents, err := os.ReadDir(sess.dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	before := list()
	if got := a.do("POST", "/v1/sessions/"+sv.ID+"/pool",
		&appendPoolRequest{PoolCSV: "1,2,3\n4,5,6\n"}, nil); got != http.StatusBadRequest {
		t.Fatalf("3-column CSV on a 4-dimensional pool: status %d, want 400", got)
	}
	if after := list(); !slices.Equal(after, before) {
		t.Fatalf("session directory after the refused append: %v, before: %v", after, before)
	}
	var grow struct {
		Rows int `json:"rows"`
	}
	a.must(http.StatusOK, "POST", "/v1/sessions/"+sv.ID+"/pool",
		&appendPoolRequest{PoolCSV: "1,2,3,4\n5,6,7,8\n"}, &grow)
	if grow.Rows != 62 {
		t.Fatalf("valid CSV append after the refused one: rows=%d, want 62", grow.Rows)
	}
}

// TestAppendPoolGrowsSession appends to a live session twice — once by
// shard path, once by inline CSV — and then runs a round over the grown
// pool. Existing row indices must stay stable and the round must be able
// to select from the full grown range.
func TestAppendPoolGrowsSession(t *testing.T) {
	dir := t.TempDir()
	shard, labX, labY := testPool(t, dir, 120, 5, 3, 21)
	srv, a := newTestServer(t, Config{})

	var sv sessionView
	a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
		Shards:  []string{shard},
		Labeled: labeledUpload{X: labX, Y: labY},
		Seed:    7,
		Probes:  4,
	}, &sv)
	if sv.Rows != 120 {
		t.Fatalf("created with %d rows, want 120", sv.Rows)
	}

	extra := appendShard(t, dir, 40, 5, 3, 22)
	var grow struct {
		Rows       int   `json:"rows"`
		Generation int64 `json:"generation"`
	}
	a.must(http.StatusOK, "POST", "/v1/sessions/"+sv.ID+"/pool",
		&appendPoolRequest{Shards: []string{extra}}, &grow)
	if grow.Rows != 160 || grow.Generation != 1 {
		t.Fatalf("after shard append: rows=%d gen=%d, want 160, 1", grow.Rows, grow.Generation)
	}

	csv := ""
	for i := 0; i < 8; i++ {
		csv += fmt.Sprintf("%d,%d,%d,%d,%d\n", i, i+1, i+2, i+3, i+4)
	}
	a.must(http.StatusOK, "POST", "/v1/sessions/"+sv.ID+"/pool",
		&appendPoolRequest{PoolCSV: csv}, &grow)
	if grow.Rows != 168 || grow.Generation != 2 {
		t.Fatalf("after CSV append: rows=%d gen=%d, want 168, 2", grow.Rows, grow.Generation)
	}

	// The session view and persisted metadata both reflect the growth.
	a.must(http.StatusOK, "GET", "/v1/sessions/"+sv.ID, nil, &sv)
	if sv.Rows != 168 {
		t.Fatalf("session view reports %d rows, want 168", sv.Rows)
	}
	sess, err := srv.session(sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.src.NumRows(); got != 168 {
		t.Fatalf("live source has %d rows, want 168", got)
	}

	// Mixed-form appends are still rejected.
	if got := a.do("POST", "/v1/sessions/"+sv.ID+"/pool",
		&appendPoolRequest{Shards: []string{extra}, PoolCSV: "1,2,3,4,5\n"}, nil); got != http.StatusBadRequest {
		t.Fatalf("shards+csv append: status %d, want 400", got)
	}
	// Dimension mismatches surface as 400, not a poisoned pool.
	bad := appendShard(t, dir, 10, 3, 3, 23)
	if got := a.do("POST", "/v1/sessions/"+sv.ID+"/pool",
		&appendPoolRequest{Shards: []string{bad}}, nil); got != http.StatusBadRequest {
		t.Fatalf("dim-mismatched append: status %d, want 400", got)
	}
	if got := sess.src.NumRows(); got != 168 {
		t.Fatalf("failed append changed the pool to %d rows", got)
	}

	// A round over the grown pool completes and selects valid indices.
	var started map[string]any
	a.must(http.StatusAccepted, "POST", "/v1/sessions/"+sv.ID+"/rounds",
		&roundRequest{Budget: 3}, &started)
	rv := a.waitRound(sv.ID, 1, 30*time.Second)
	if rv.Status != RoundDone {
		t.Fatalf("round over grown pool: %s (%s)", rv.Status, rv.Error)
	}
	if len(rv.Selected) != 3 {
		t.Fatalf("selected %d, want 3", len(rv.Selected))
	}
	for _, i := range rv.Selected {
		if i < 0 || i >= 168 {
			t.Fatalf("selected index %d out of grown range [0, 168)", i)
		}
	}
}

// TestAppendPoolRefusedMidRound pins the consistency rule: while a round
// is queued or running, pool appends are refused with 409 — the round's
// checkpoint records a trajectory over a fixed simplex dimension.
func TestAppendPoolRefusedMidRound(t *testing.T) {
	dir := t.TempDir()
	shard, labX, labY := testPool(t, dir, 80, 4, 3, 31)
	srv, a := newTestServer(t, Config{})

	var sv sessionView
	a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
		Shards:  []string{shard},
		Labeled: labeledUpload{X: labX, Y: labY},
	}, &sv)
	sess, err := srv.session(sv.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Plant an active round directly — deterministic, no timing race with
	// a real solver run.
	sess.mu.Lock()
	rm := &RoundMeta{Round: 1, Budget: 1, Status: RoundRunning}
	sess.meta.Rounds = append(sess.meta.Rounds, rm)
	sess.mu.Unlock()

	extra := appendShard(t, dir, 10, 4, 3, 32)
	if got := a.do("POST", "/v1/sessions/"+sv.ID+"/pool",
		&appendPoolRequest{Shards: []string{extra}}, nil); got != http.StatusConflict {
		t.Fatalf("append during active round: status %d, want 409", got)
	}

	sess.mu.Lock()
	rm.Status = RoundDone
	sess.mu.Unlock()
	var grow struct {
		Rows int `json:"rows"`
	}
	a.must(http.StatusOK, "POST", "/v1/sessions/"+sv.ID+"/pool",
		&appendPoolRequest{Shards: []string{extra}}, &grow)
	if grow.Rows != 90 {
		t.Fatalf("post-round append: rows=%d, want 90", grow.Rows)
	}
}

// TestWarmStartedRounds runs round 1, appends a small delta, and runs
// round 2 without new labels: the server must leave a warm checkpoint
// whose weights sum to 1 and complete the warm-started round over the
// grown pool — serially and on two in-process ranks, where only rank 0
// writes the checkpoints. The restarted case closes the server after
// round 1 and reopens its DataDir before the append: round 2 must select
// what it selects on the server that kept running and leave the same
// state file, the raw bits of its RELAX weights, so nothing but the
// session's files feeds a round.
func TestWarmStartedRounds(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		selector string
	}{{"approx", Config{}, ""}, {"dist", Config{Ranks: 2}, "dist"}} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantState := testWarmStartedRounds(t, tc.cfg, tc.selector, false)
			t.Run("restarted", func(t *testing.T) {
				got, gotState := testWarmStartedRounds(t, tc.cfg, tc.selector, true)
				if !slices.Equal(got, want) {
					t.Fatalf("round 2 after a restart selected %v, without one %v", got, want)
				}
				if !bytes.Equal(gotState, wantState) {
					t.Fatal("round 2's state file differs after a restart")
				}
			})
		})
	}
}

// testWarmStartedRounds runs the two rounds and returns round 2's
// selection and state file; with restart set, a new Server over the same
// DataDir serves the append and round 2.
func testWarmStartedRounds(t *testing.T, cfg Config, selector string, restart bool) ([]int, []byte) {
	dir := t.TempDir()
	shard, labX, labY := testPool(t, dir, 200, 5, 3, 41)
	cfg.DataDir = filepath.Join(dir, "data")
	srv, a := newTestServer(t, cfg)

	var sv sessionView
	a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
		Shards:          []string{shard},
		Labeled:         labeledUpload{X: labX, Y: labY},
		Seed:            5,
		Selector:        selector,
		Probes:          4,
		FixedRelaxIters: 5,
	}, &sv)

	a.must(http.StatusAccepted, "POST", "/v1/sessions/"+sv.ID+"/rounds",
		&roundRequest{Budget: 2}, &map[string]any{})
	rv := a.waitRound(sv.ID, 1, 30*time.Second)
	if rv.Status != RoundDone {
		t.Fatalf("round 1: %s (%s)", rv.Status, rv.Error)
	}

	sess, err := srv.session(sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The state file holds round 1's finished solve after completion.
	wr, wck, err := readCheckpoint(statePath(sess.dir))
	if err != nil {
		t.Fatalf("state file: %v", err)
	}
	if wr != 1 || !wck.Done || len(wck.Z) != 200 {
		t.Fatalf("state file: round %d (done=%v) with %d weights, want round 1's done solve with 200",
			wr, wck.Done, len(wck.Z))
	}
	sum := 0.0
	for _, z := range wck.Z {
		sum += z
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("warm weights sum to %g, want 1 (pre-budget-scaling simplex point)", sum)
	}

	if restart {
		srv.Close()
		srv, a = newTestServer(t, cfg)
		if sess, err = srv.session(sv.ID); err != nil {
			t.Fatal(err)
		}
	}

	extra := appendShard(t, dir, 20, 5, 3, 42)
	a.must(http.StatusOK, "POST", "/v1/sessions/"+sv.ID+"/pool",
		&appendPoolRequest{Shards: []string{extra}}, &map[string]any{})

	a.must(http.StatusAccepted, "POST", "/v1/sessions/"+sv.ID+"/rounds",
		&roundRequest{Budget: 2}, &map[string]any{})
	rv = a.waitRound(sv.ID, 2, 30*time.Second)
	if rv.Status != RoundDone {
		t.Fatalf("warm round 2: %s (%s)", rv.Status, rv.Error)
	}
	for _, i := range rv.Selected {
		if i < 0 || i >= 220 {
			t.Fatalf("round 2 selected %d outside grown pool [0, 220)", i)
		}
	}
	// The warm checkpoint advanced to round 2.
	if wr, wck, err := readCheckpoint(statePath(sess.dir)); err != nil || wr != 2 || !wck.Done {
		t.Fatalf("state file after round 2: round %d, err %v; want round 2's done solve", wr, err)
	}
	state, err := os.ReadFile(statePath(sess.dir))
	if err != nil {
		t.Fatal(err)
	}
	return rv.Selected, state
}
