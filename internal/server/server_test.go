package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/parallel"
)

// testPool generates a synthetic c-class pool, packs it into a shard file
// under dir, and returns the shard path plus a labeled seed set.
func testPool(t *testing.T, dir string, n, d, c int, seed int64) (string, [][]float64, []int) {
	t.Helper()
	ds := dataset.Generate(dataset.Config{
		Classes: c, Dim: d, PoolSize: n, EvalSize: c, InitPerClass: 3,
		Rounds: 1, Budget: 1,
	}, seed)
	shard := filepath.Join(dir, fmt.Sprintf("pool-%d.shard", seed))
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
	labX := make([][]float64, ds.LabeledX.Rows)
	for i := range labX {
		labX[i] = append([]float64(nil), ds.LabeledX.Row(i)...)
	}
	return shard, labX, ds.LabeledY
}

// api is a tiny JSON client against a test server.
type api struct {
	t    *testing.T
	base string
}

// do issues a request and decodes the JSON response into out (when
// non-nil), returning the status code.
func (a *api) do(method, path string, body, out any) int {
	a.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			a.t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		a.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		a.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			a.t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// must asserts the expected status and fails with the error payload.
func (a *api) must(status int, method, path string, body, out any) {
	a.t.Helper()
	var raw json.RawMessage
	got := a.do(method, path, body, &raw)
	if got != status {
		a.t.Fatalf("%s %s: status %d, want %d: %s", method, path, got, status, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			a.t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
}

// waitRound polls a round until it reaches a terminal status.
func (a *api) waitRound(id string, round int, timeout time.Duration) roundView {
	a.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var rv roundView
		a.must(http.StatusOK, "GET", fmt.Sprintf("/v1/sessions/%s/rounds/%d", id, round), nil, &rv)
		switch rv.Status {
		case RoundDone, RoundFailed, RoundInterrupted:
			return rv
		}
		if time.Now().After(deadline) {
			a.t.Fatalf("round %d still %s after %v", round, rv.Status, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *api) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, &api{t: t, base: hs.URL}
}

// TestSessionLifecycle drives the full dialogue over HTTP: create against
// a shard-path pool, extend labels by pool index, run two asynchronous
// rounds, fetch selections, and delete. Round 2 must respect the
// tombstones from round 1 and the index-labeled rows.
func TestSessionLifecycle(t *testing.T) {
	shard, labX, labY := testPool(t, t.TempDir(), 300, 6, 3, 11)
	_, a := newTestServer(t, Config{})

	var sv sessionView
	a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
		Shards:  []string{shard},
		Labeled: labeledUpload{X: labX, Y: labY},
		Seed:    7,
		// The registry alias must resolve (satellite of the CLI gap).
		Selector:        "firal",
		Probes:          4,
		FixedRelaxIters: 3,
	}, &sv)
	if sv.Selector != "Approx-FIRAL" {
		t.Fatalf("alias not canonicalized: %q", sv.Selector)
	}
	if sv.Rows != 300 || sv.Dim != 6 || sv.Classes != 3 {
		t.Fatalf("session shape %d×%d/%d classes", sv.Rows, sv.Dim, sv.Classes)
	}

	// Label two pool rows by index; they become tombstones for selection.
	var lab map[string]int
	a.must(http.StatusOK, "POST", "/v1/sessions/"+sv.ID+"/labels", &labelsRequest{
		Pool: []IndexLabel{{Index: 5, Label: 0}, {Index: 6, Label: 1}},
	}, &lab)
	if lab["labeled"] != len(labY)+2 {
		t.Fatalf("labeled = %d, want %d", lab["labeled"], len(labY)+2)
	}
	// Relabeling the same row is a client error.
	if code := a.do("POST", "/v1/sessions/"+sv.ID+"/labels", &labelsRequest{
		Pool: []IndexLabel{{Index: 5, Label: 2}},
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("duplicate index label: status %d, want 400", code)
	}

	var kicked map[string]any
	a.must(http.StatusAccepted, "POST", "/v1/sessions/"+sv.ID+"/rounds", &roundRequest{Budget: 4}, &kicked)
	rv := a.waitRound(sv.ID, 1, 30*time.Second)
	if rv.Status != RoundDone {
		t.Fatalf("round 1 ended %s: %s", rv.Status, rv.Error)
	}
	if rv.WorkersObserved != parallel.Workers() {
		t.Fatalf("workers observed %d, want the process count %d", rv.WorkersObserved, parallel.Workers())
	}

	var sel struct {
		Selected []int `json:"selected"`
	}
	a.must(http.StatusOK, "GET", "/v1/sessions/"+sv.ID+"/rounds/1/selected", nil, &sel)
	if len(sel.Selected) != 4 {
		t.Fatalf("selected %d points, want 4", len(sel.Selected))
	}
	taken := map[int]bool{5: true, 6: true}
	for _, i := range sel.Selected {
		if i < 0 || i >= 300 || taken[i] {
			t.Fatalf("round 1 selected invalid or tombstoned index %d", i)
		}
		taken[i] = true
	}

	a.must(http.StatusAccepted, "POST", "/v1/sessions/"+sv.ID+"/rounds", &roundRequest{Budget: 4}, &kicked)
	if rv := a.waitRound(sv.ID, 2, 30*time.Second); rv.Status != RoundDone {
		t.Fatalf("round 2 ended %s: %s", rv.Status, rv.Error)
	}
	a.must(http.StatusOK, "GET", "/v1/sessions/"+sv.ID+"/rounds/2/selected", nil, &sel)
	for _, i := range sel.Selected {
		if taken[i] {
			t.Fatalf("round 2 re-selected index %d", i)
		}
		taken[i] = true
	}

	a.must(http.StatusNoContent, "DELETE", "/v1/sessions/"+sv.ID, nil, nil)
	if code := a.do("GET", "/v1/sessions/"+sv.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session answered %d, want 404", code)
	}
}

// TestCreateValidation pins the 400-class errors: unknown selector (must
// list the registry), the unservable distributed selector, conflicting or
// absent pool registration, shape mismatches, and the removed block_rows
// field (the row-block size is not a session setting).
func TestCreateValidation(t *testing.T) {
	shard, labX, labY := testPool(t, t.TempDir(), 50, 4, 2, 3)
	_, a := newTestServer(t, Config{})
	lab := labeledUpload{X: labX, Y: labY}

	cases := []struct {
		name string
		req  any
		want string
	}{
		{"unknown selector", createRequest{Shards: []string{shard}, Labeled: lab, Selector: "gradient-boost"}, "Approx-FIRAL"},
		{"dist needs ranks", createRequest{Shards: []string{shard}, Labeled: lab, Selector: "dist"}, "-ranks"},
		{"no pool", createRequest{Labeled: lab}, "pool required"},
		{"both pools", createRequest{Shards: []string{shard}, PoolCSV: "1,2,3,4\n", Labeled: lab}, "not both"},
		{"no labels", createRequest{Shards: []string{shard}}, "labeled set required"},
		{"missing shard", createRequest{Shards: []string{shard + ".nope"}, Labeled: lab}, shard + ".nope"},
		{"dim mismatch", createRequest{Shards: []string{shard}, Labeled: labeledUpload{X: [][]float64{{1, 2}, {3, 4}}, Y: []int{0, 1}}}, "dimension"},
		{"label out of range", createRequest{Shards: []string{shard}, Labeled: labeledUpload{X: labX, Y: make([]int, len(labY))}}, "2 classes"},
		{"block_rows field", map[string]any{"shards": []string{shard}, "labeled": lab, "block_rows": 32}, `"block_rows"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e struct {
				Error string `json:"error"`
			}
			if code := a.do("POST", "/v1/sessions", tc.req, &e); code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", code, e.Error)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.want)
			}
		})
	}
}

// TestCreateRejectsRaggedLabels pins the width check on every labeled
// row at create time, not only the first: a seed set whose second row is
// short is refused with 400 naming the row, instead of training on a
// zero-padded row.
func TestCreateRejectsRaggedLabels(t *testing.T) {
	shard, labX, labY := testPool(t, t.TempDir(), 50, 4, 2, 3)
	_, a := newTestServer(t, Config{})
	labX[1] = labX[1][:2]
	var e struct {
		Error string `json:"error"`
	}
	req := &createRequest{Shards: []string{shard}, Labeled: labeledUpload{X: labX, Y: labY}}
	if code := a.do("POST", "/v1/sessions", req, &e); code != http.StatusBadRequest {
		t.Fatalf("ragged labeled set: status %d, want 400 (%s)", code, e.Error)
	}
	if !strings.Contains(e.Error, "x[1]") {
		t.Fatalf("error %q does not name x[1]", e.Error)
	}
}

// TestInlineCSVPool uploads the pool as CSV text; the server packs it into
// a session-local shard and selection runs against that.
func TestInlineCSVPool(t *testing.T) {
	ds := dataset.Generate(dataset.Config{
		Classes: 2, Dim: 3, PoolSize: 40, EvalSize: 2, InitPerClass: 3, Rounds: 1, Budget: 1,
	}, 21)
	var csv strings.Builder
	for i := 0; i < ds.PoolX.Rows; i++ {
		row := ds.PoolX.Row(i)
		for j, v := range row {
			if j > 0 {
				csv.WriteByte(',')
			}
			fmt.Fprintf(&csv, "%g", v)
		}
		csv.WriteByte('\n')
	}
	labX := make([][]float64, ds.LabeledX.Rows)
	for i := range labX {
		labX[i] = append([]float64(nil), ds.LabeledX.Row(i)...)
	}

	_, a := newTestServer(t, Config{})
	var sv sessionView
	a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
		PoolCSV:  csv.String(),
		Labeled:  labeledUpload{X: labX, Y: ds.LabeledY},
		Selector: "entropy",
	}, &sv)
	if sv.Rows != 40 || sv.Dim != 3 {
		t.Fatalf("inline pool registered as %d×%d, want 40×3", sv.Rows, sv.Dim)
	}
	a.must(http.StatusAccepted, "POST", "/v1/sessions/"+sv.ID+"/rounds", &roundRequest{Budget: 5}, nil)
	if rv := a.waitRound(sv.ID, 1, 30*time.Second); rv.Status != RoundDone || len(rv.Selected) != 5 {
		t.Fatalf("inline round: %+v", rv)
	}
}

// TestResumeBitForBit is the kill-mid-round acceptance test, in-process
// for determinism: run a reference round to completion on one server;
// interrupt the identically-configured round on a second server once its
// first RELAX state hits disk; restart over the same data directory
// and let recovery resume the solve. The resumed selection must equal the
// uninterrupted one exactly — the checkpoint restores the mirror-descent
// trajectory bit-for-bit, so there is no tolerance in this comparison.
func TestResumeBitForBit(t *testing.T) {
	poolDir := t.TempDir()
	shard, labX, labY := testPool(t, poolDir, 500, 8, 3, 31)
	mk := func() *createRequest {
		return &createRequest{
			Shards:          []string{shard},
			Labeled:         labeledUpload{X: labX, Y: labY},
			Seed:            99,
			Selector:        "Approx-FIRAL",
			Probes:          4,
			FixedRelaxIters: 25,
		}
	}

	// Reference: uninterrupted round.
	_, ref := newTestServer(t, Config{})
	var refSess sessionView
	ref.must(http.StatusCreated, "POST", "/v1/sessions", mk(), &refSess)
	ref.must(http.StatusAccepted, "POST", "/v1/sessions/"+refSess.ID+"/rounds", &roundRequest{Budget: 6}, nil)
	refRound := ref.waitRound(refSess.ID, 1, 60*time.Second)
	if refRound.Status != RoundDone {
		t.Fatalf("reference round: %s %s", refRound.Status, refRound.Error)
	}

	// Interrupted run: same pool, seed, and solver settings, own data dir.
	dataDir := t.TempDir()
	srv2, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	a2 := &api{t: t, base: hs2.URL}
	var sess sessionView
	a2.must(http.StatusCreated, "POST", "/v1/sessions", mk(), &sess)
	a2.must(http.StatusAccepted, "POST", "/v1/sessions/"+sess.ID+"/rounds", &roundRequest{Budget: 6}, nil)

	// Kill the server as soon as the round has checkpointed at least once
	// (the state file is the observable for "mid-RELAX").
	ckpt := statePath(filepath.Join(dataDir, sess.ID))
	for deadline := time.Now().Add(60 * time.Second); ; {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(time.Millisecond)
	}
	hs2.Close()
	srv2.Close() // cancels the running round; checkpoint stays on disk

	if r, ck, err := readCheckpoint(ckpt); err != nil || r != 1 {
		t.Fatalf("state file after interrupt: round %d, err %v; want round 1", r, err)
	} else if ck.Done {
		t.Skip("round finished before the interrupt landed; nothing to resume")
	}

	// Restart over the same directory: recovery must re-enqueue and finish
	// the round without a new kick.
	srv3, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	hs3 := httptest.NewServer(srv3.Handler())
	t.Cleanup(func() { hs3.Close(); srv3.Close() })
	a3 := &api{t: t, base: hs3.URL}
	resumed := a3.waitRound(sess.ID, 1, 60*time.Second)
	if resumed.Status != RoundDone {
		t.Fatalf("resumed round: %s %s", resumed.Status, resumed.Error)
	}

	if len(resumed.Selected) != len(refRound.Selected) {
		t.Fatalf("resumed selected %d points, reference %d", len(resumed.Selected), len(refRound.Selected))
	}
	for i := range resumed.Selected {
		if resumed.Selected[i] != refRound.Selected[i] {
			t.Fatalf("selection diverged at position %d: resumed %v, reference %v",
				i, resumed.Selected, refRound.Selected)
		}
	}
	// The state file now holds round 1's finished solve, the warm start
	// of round 2.
	if r, ck, err := readCheckpoint(ckpt); err != nil || r != 1 || !ck.Done {
		t.Errorf("state file after completion: round %d, err %v; want round 1's done solve", r, err)
	}
}

// TestRecoverTwoFileLayout restarts over a session directory in the
// layout older servers left mid-round: the interrupted round's state in
// round.ckpt and the previous round's finished solve in warm.ckpt. The
// server reads only warm.ckpt, so round 2 reruns from round 1's warm
// start — the trajectory the old layout resumed — and must select exactly
// what an uninterrupted reference selects.
func TestRecoverTwoFileLayout(t *testing.T) {
	shard, labX, labY := testPool(t, t.TempDir(), 500, 8, 3, 33)
	mk := func() *createRequest {
		return &createRequest{
			Shards:          []string{shard},
			Labeled:         labeledUpload{X: labX, Y: labY},
			Seed:            7,
			Probes:          4,
			FixedRelaxIters: 25,
		}
	}
	round := func(a *api, id string, r int) roundView {
		a.must(http.StatusAccepted, "POST", "/v1/sessions/"+id+"/rounds", &roundRequest{Budget: 10}, nil)
		rv := a.waitRound(id, r, 60*time.Second)
		if rv.Status != RoundDone {
			t.Fatalf("round %d: %s %s", r, rv.Status, rv.Error)
		}
		return rv
	}

	// Reference: two uninterrupted rounds.
	_, ref := newTestServer(t, Config{})
	var refSess sessionView
	ref.must(http.StatusCreated, "POST", "/v1/sessions", mk(), &refSess)
	round(ref, refSess.ID, 1)
	refRound := round(ref, refSess.ID, 2)

	// Victim: round 1 completes; its finished solve is round 2's warm start.
	dataDir := t.TempDir()
	srv2, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	a2 := &api{t: t, base: hs2.URL}
	var sess sessionView
	a2.must(http.StatusCreated, "POST", "/v1/sessions", mk(), &sess)
	round(a2, sess.ID, 1)
	dir := filepath.Join(dataDir, sess.ID)
	state := statePath(dir)
	warm1, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt round 2 once its own state is on disk.
	a2.must(http.StatusAccepted, "POST", "/v1/sessions/"+sess.ID+"/rounds", &roundRequest{Budget: 10}, nil)
	for deadline := time.Now().Add(60 * time.Second); ; {
		if r, _, err := readCheckpoint(state); err == nil && r == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("round 2 never checkpointed")
		}
		time.Sleep(time.Millisecond)
	}
	hs2.Close()
	srv2.Close()
	if r, ck, err := readCheckpoint(state); err != nil || r != 2 {
		t.Fatalf("state file after interrupt: round %d, err %v; want round 2", r, err)
	} else if ck.Done {
		t.Skip("round 2's RELAX finished before the interrupt landed; nothing to resume")
	}

	// Rewrite the directory into the two-file layout.
	if err := os.Rename(state, filepath.Join(dir, "round.ckpt")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(state, warm1, 0o644); err != nil {
		t.Fatal(err)
	}

	srv3, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	hs3 := httptest.NewServer(srv3.Handler())
	t.Cleanup(func() { hs3.Close(); srv3.Close() })
	a3 := &api{t: t, base: hs3.URL}
	resumed := a3.waitRound(sess.ID, 2, 60*time.Second)
	if resumed.Status != RoundDone {
		t.Fatalf("recovered round 2: %s %s", resumed.Status, resumed.Error)
	}
	if fmt.Sprint(resumed.Selected) != fmt.Sprint(refRound.Selected) {
		t.Fatalf("recovered round 2 selected %v, reference %v", resumed.Selected, refRound.Selected)
	}
}

// TestAdmissionBackpressure pins the HTTP contract: with capacity C and
// queue depth Q, C+Q+1 concurrent round starts produce exactly one 429,
// and the refused round succeeds on retry once the congestion clears. The
// capacity slot is pinned by a directly held admission ticket, so the
// outcome does not depend on solver timing.
func TestAdmissionBackpressure(t *testing.T) {
	shard, labX, labY := testPool(t, t.TempDir(), 60, 4, 2, 41)
	srv, a := newTestServer(t, Config{Concurrency: 1, QueueDepth: 1})

	hold, _, err := srv.adm.Admit(false) // occupy the only slot (C=1)
	if err != nil {
		t.Fatal(err)
	}

	ids := make([]string, 2)
	for i := range ids {
		var sv sessionView
		a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
			Shards: []string{shard}, Labeled: labeledUpload{X: labX, Y: labY}, Selector: "entropy",
		}, &sv)
		ids[i] = sv.ID
	}

	// Q=1: the first kick queues at position 1; the second is refused.
	var kicked struct {
		Round         int    `json:"round"`
		Status        string `json:"status"`
		QueuePosition int    `json:"queue_position"`
	}
	a.must(http.StatusAccepted, "POST", "/v1/sessions/"+ids[0]+"/rounds", &roundRequest{Budget: 3}, &kicked)
	if kicked.Status != RoundQueued || kicked.QueuePosition != 1 {
		t.Fatalf("first kick: %+v, want queued at position 1", kicked)
	}
	var rv roundView
	a.must(http.StatusOK, "GET", "/v1/sessions/"+ids[0]+"/rounds/1", nil, &rv)
	if rv.Status != RoundQueued || rv.QueuePosition != 1 {
		t.Fatalf("queued round reports %+v", rv)
	}
	if code := a.do("POST", "/v1/sessions/"+ids[1]+"/rounds", &roundRequest{Budget: 3}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("over-depth kick: status %d, want 429", code)
	}

	// Congestion clears: the queued round runs, and the refused one
	// succeeds on retry.
	hold.Release()
	if rv := a.waitRound(ids[0], 1, 30*time.Second); rv.Status != RoundDone {
		t.Fatalf("queued round ended %s: %s", rv.Status, rv.Error)
	}
	a.must(http.StatusAccepted, "POST", "/v1/sessions/"+ids[1]+"/rounds", &roundRequest{Budget: 3}, nil)
	if rv := a.waitRound(ids[1], 1, 30*time.Second); rv.Status != RoundDone {
		t.Fatalf("retried round ended %s: %s", rv.Status, rv.Error)
	}
}

// TestConcurrentSessions runs N full client lifecycles in parallel — the
// -race companion of the admission test. Every session must see only its
// own pool's indices and leave nothing behind after delete.
func TestConcurrentSessions(t *testing.T) {
	const clients = 5
	poolDir := t.TempDir()
	srv, a := newTestServer(t, Config{Concurrency: 2, QueueDepth: clients})

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("client %d: "+format, append([]any{k}, args...)...)
			}
			n := 80 + 20*k
			shard, labX, labY := testPool(t, poolDir, n, 5, 2, int64(100+k))
			var sv sessionView
			code := a.do("POST", "/v1/sessions", &createRequest{
				Shards: []string{shard}, Labeled: labeledUpload{X: labX, Y: labY},
				Selector: "Approx-FIRAL", Probes: 3, FixedRelaxIters: 2, Seed: int64(k),
			}, &sv)
			if code != http.StatusCreated {
				fail("create: status %d", code)
				return
			}
			for round := 1; round <= 2; round++ {
				if code := a.do("POST", "/v1/sessions/"+sv.ID+"/rounds", &roundRequest{Budget: 3}, nil); code != http.StatusAccepted {
					fail("round %d kick: status %d", round, code)
					return
				}
				deadline := time.Now().Add(60 * time.Second)
				for {
					var rv roundView
					if code := a.do("GET", fmt.Sprintf("/v1/sessions/%s/rounds/%d", sv.ID, round), nil, &rv); code != http.StatusOK {
						fail("round %d poll: status %d", round, code)
						return
					}
					if rv.Status == RoundDone {
						if len(rv.Selected) != 3 {
							fail("round %d selected %d", round, len(rv.Selected))
							return
						}
						for _, i := range rv.Selected {
							if i < 0 || i >= n {
								fail("round %d index %d outside own pool [0,%d)", round, i, n)
								return
							}
						}
						break
					}
					if rv.Status == RoundFailed || rv.Status == RoundInterrupted {
						fail("round %d ended %s: %s", round, rv.Status, rv.Error)
						return
					}
					if time.Now().After(deadline) {
						fail("round %d timed out in %s", round, rv.Status)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
			if code := a.do("DELETE", "/v1/sessions/"+sv.ID, nil, nil); code != http.StatusNoContent {
				fail("delete: status %d", code)
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if running, queued := srv.adm.Stats(); running != 0 || queued != 0 {
		t.Errorf("admission leaked: %d running, %d queued", running, queued)
	}
	var list struct {
		Sessions []sessionView `json:"sessions"`
	}
	a.must(http.StatusOK, "GET", "/v1/sessions", nil, &list)
	if len(list.Sessions) != 0 {
		t.Errorf("%d sessions left after deletes", len(list.Sessions))
	}
}

// TestNoGoroutineLeak pins that a full create→round→delete→Close cycle
// returns the process to its original goroutine count.
func TestNoGoroutineLeak(t *testing.T) {
	shard, labX, labY := testPool(t, t.TempDir(), 80, 4, 2, 51)
	before := runtime.NumGoroutine()

	srv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	a := &api{t: t, base: hs.URL}
	var sv sessionView
	a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
		Shards: []string{shard}, Labeled: labeledUpload{X: labX, Y: labY}, Selector: "margin",
	}, &sv)
	a.must(http.StatusAccepted, "POST", "/v1/sessions/"+sv.ID+"/rounds", &roundRequest{Budget: 3}, nil)
	a.waitRound(sv.ID, 1, 30*time.Second)
	a.must(http.StatusNoContent, "DELETE", "/v1/sessions/"+sv.ID, nil, nil)
	hs.Close()
	srv.Close()

	// The HTTP stack retires keep-alive and idle goroutines asynchronously.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+2 {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d → %d after full lifecycle\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestNoGoroutineLeakPrefetchedRound extends the leak pin to the
// prefetched Approx-FIRAL sweep: over a pool of two
// dataset.DefaultBlockRows blocks the round's selection runs through
// dataset.WithPrefetch, so every solver sweep keeps an asynchronous
// shard read in flight. Both a round
// allowed to finish and a round cancelled mid-sweep by session delete
// must drain those reads and return the process to its original
// goroutine count.
func TestNoGoroutineLeakPrefetchedRound(t *testing.T) {
	shard, labX, labY := testPool(t, t.TempDir(), dataset.DefaultBlockRows+404, 6, 3, 52)
	before := runtime.NumGoroutine()

	srv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	a := &api{t: t, base: hs.URL}

	// Round 1 runs to completion through the prefetched sweep path.
	var sv sessionView
	a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
		Shards: []string{shard}, Labeled: labeledUpload{X: labX, Y: labY},
		Selector: "Approx-FIRAL", Probes: 3, FixedRelaxIters: 2, Seed: 3,
	}, &sv)
	a.must(http.StatusAccepted, "POST", "/v1/sessions/"+sv.ID+"/rounds", &roundRequest{Budget: 3}, nil)
	if rv := a.waitRound(sv.ID, 1, 30*time.Second); rv.Status != RoundDone {
		t.Fatalf("round 1 ended %s: %s", rv.Status, rv.Error)
	}
	a.must(http.StatusNoContent, "DELETE", "/v1/sessions/"+sv.ID, nil, nil)

	// Round 2 is torn down mid-flight: many mirror-descent iterations keep
	// the sweep busy while the delete cancels the round context, which the
	// prefetcher must answer by draining its in-flight read.
	a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
		Shards: []string{shard}, Labeled: labeledUpload{X: labX, Y: labY},
		Selector: "Approx-FIRAL", Probes: 4, FixedRelaxIters: 50, Seed: 4,
	}, &sv)
	a.must(http.StatusAccepted, "POST", "/v1/sessions/"+sv.ID+"/rounds", &roundRequest{Budget: 3}, nil)
	time.Sleep(20 * time.Millisecond) // let the sweep get going
	a.must(http.StatusNoContent, "DELETE", "/v1/sessions/"+sv.ID, nil, nil)

	hs.Close()
	srv.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+2 {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d → %d after prefetched rounds\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestMultiTenantThroughput is the scaling acceptance check: 8 tenants
// running their rounds through a concurrency-4 server must finish within
// 2× the wall-clock of the same 8 rounds run strictly one at a time —
// i.e. multiplexing may cost coordination overhead but must not serialize
// pathologically. Skipped where the timing is meaningless.
func TestMultiTenantThroughput(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("timing under the race detector is not meaningful")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs ≥ 2 CPUs")
	}
	const tenants = 8
	poolDir := t.TempDir()
	type tenant struct {
		shard string
		labX  [][]float64
		labY  []int
	}
	tens := make([]tenant, tenants)
	for k := range tens {
		shard, labX, labY := testPool(t, poolDir, 400, 8, 3, int64(200+k))
		tens[k] = tenant{shard, labX, labY}
	}
	run := func(concurrency int) time.Duration {
		_, a := newTestServer(t, Config{Concurrency: concurrency, QueueDepth: tenants})
		ids := make([]string, tenants)
		for k, tn := range tens {
			var sv sessionView
			a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
				Shards: []string{tn.shard}, Labeled: labeledUpload{X: tn.labX, Y: tn.labY},
				Selector: "Approx-FIRAL", Probes: 4, FixedRelaxIters: 4, Seed: int64(k),
			}, &sv)
			ids[k] = sv.ID
		}
		start := time.Now()
		for _, id := range ids {
			a.must(http.StatusAccepted, "POST", "/v1/sessions/"+id+"/rounds", &roundRequest{Budget: 4}, nil)
		}
		for _, id := range ids {
			if rv := a.waitRound(id, 1, 120*time.Second); rv.Status != RoundDone {
				t.Fatalf("tenant round ended %s: %s", rv.Status, rv.Error)
			}
		}
		return time.Since(start)
	}
	sequential := run(1)
	concurrent := run(4)
	t.Logf("8 tenants: sequential %v, concurrent %v", sequential, concurrent)
	if concurrent > 2*sequential {
		t.Errorf("concurrent wall-clock %v exceeds 2× sequential %v", concurrent, sequential)
	}
}

// TestDistFIRALRounds serves Dist-FIRAL when the server is configured
// with in-process ranks: rounds complete, respect tombstones, and two
// servers with the same rank count reproduce identical selections (the
// distributed solver is deterministic at fixed geometry).
func TestDistFIRALRounds(t *testing.T) {
	shard, labX, labY := testPool(t, t.TempDir(), 200, 5, 3, 17)
	runOnce := func() [][]int {
		_, a := newTestServer(t, Config{Ranks: 3})
		var sv sessionView
		a.must(http.StatusCreated, "POST", "/v1/sessions", &createRequest{
			Shards:          []string{shard},
			Labeled:         labeledUpload{X: labX, Y: labY},
			Seed:            9,
			Selector:        "dist",
			Probes:          4,
			FixedRelaxIters: 3,
		}, &sv)
		if sv.Selector != "Dist-FIRAL" {
			t.Fatalf("alias not canonicalized: %q", sv.Selector)
		}
		var sels [][]int
		for round := 1; round <= 2; round++ {
			a.must(http.StatusAccepted, "POST", "/v1/sessions/"+sv.ID+"/rounds", &roundRequest{Budget: 4}, nil)
			if rv := a.waitRound(sv.ID, round, 60*time.Second); rv.Status != RoundDone {
				t.Fatalf("dist round %d ended %s: %s", round, rv.Status, rv.Error)
			}
			var sel struct {
				Selected []int `json:"selected"`
			}
			a.must(http.StatusOK, "GET", fmt.Sprintf("/v1/sessions/%s/rounds/%d/selected", sv.ID, round), nil, &sel)
			if len(sel.Selected) != 4 {
				t.Fatalf("dist round %d selected %d points, want 4", round, len(sel.Selected))
			}
			sels = append(sels, sel.Selected)
		}
		taken := map[int]bool{}
		for _, sel := range sels {
			for _, i := range sel {
				if i < 0 || i >= 200 || taken[i] {
					t.Fatalf("invalid or re-selected index %d across rounds %v", i, sels)
				}
				taken[i] = true
			}
		}
		return sels
	}
	first := runOnce()
	second := runOnce()
	for r := range first {
		for i := range first[r] {
			if first[r][i] != second[r][i] {
				t.Fatalf("round %d not reproducible: %v vs %v", r+1, first[r], second[r])
			}
		}
	}
}
