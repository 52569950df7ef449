// Service: drive the selection-as-a-service layer end to end. The
// walkthrough starts an in-process server (the same internal/server that
// cmd/firald wraps), then speaks to it exclusively over HTTP — creating a
// session from a packed shard pool, labeling pool rows by index, kicking
// off an asynchronous Approx-FIRAL round, polling its RELAX progress,
// fetching the selected indices, appending freshly crawled rows to the
// live pool, and running a second, warm-started round whose tombstones
// exclude everything already taken. Each step prints the
// equivalent curl command, so the transcript doubles as the API
// reference for a real firald deployment:
//
//	firald -data /var/lib/firal -addr :8080 &
//	go run ./examples/service            # the in-process variant below
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/server"
)

func main() {
	const (
		n, d, classes = 5_000, 16, 4
		budget        = 8
	)
	dir, err := os.MkdirTemp("", "firal-service")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A pool shard, as produced by `firal -pack` (features only).
	ds := dataset.Generate(dataset.Config{
		Classes: classes, Dim: d, PoolSize: n, EvalSize: classes,
		InitPerClass: 2, Rounds: 1, Budget: budget,
	}, 1)
	shard := filepath.Join(dir, "pool.shard")
	w, err := dataset.CreateShard(shard, d)
	if err != nil {
		log.Fatal(err)
	}
	if err := w.AppendBlock(ds.PoolX); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// The service: cmd/firald does exactly this behind `-data`/-addr`.
	srv, err := server.New(server.Config{
		DataDir:     filepath.Join(dir, "data"),
		Concurrency: 2,
		Logf:        log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	fmt.Printf("service up at %s (state in %s)\n\n", hs.URL, filepath.Join(dir, "data"))

	// 1. Create a session: pool by shard path, initial labeled seed set,
	// selector from the registry (aliases like "firal" resolve).
	labX := make([][]float64, ds.LabeledX.Rows)
	for i := range labX {
		labX[i] = ds.LabeledX.Row(i)
	}
	create := map[string]any{
		"shards":   []string{shard},
		"labeled":  map[string]any{"x": labX, "y": ds.LabeledY},
		"selector": "firal",
		"seed":     42,
		"workers":  2,
	}
	curl("POST", "/v1/sessions", `-d '{"shards":["pool.shard"],"labeled":{...},"selector":"firal"}'`)
	var sess struct {
		ID      string `json:"id"`
		Rows    int    `json:"rows"`
		Dim     int    `json:"dim"`
		Classes int    `json:"classes"`
	}
	post(hs.URL+"/v1/sessions", create, &sess)
	fmt.Printf("  → session %s: pool %d×%d, %d classes\n\n", sess.ID, sess.Rows, sess.Dim, sess.Classes)

	// 2. The labeling team looked at two pool rows: report them by index.
	// They become tombstones — still in the pool, never re-selected.
	curl("POST", "/v1/sessions/"+sess.ID+"/labels", `-d '{"pool":[{"index":17,"label":2},{"index":40,"label":0}]}'`)
	var labeled map[string]int
	post(hs.URL+"/v1/sessions/"+sess.ID+"/labels", map[string]any{
		"pool": []map[string]int{{"index": 17, "label": 2}, {"index": 40, "label": 0}},
	}, &labeled)
	fmt.Printf("  → %d labels on record\n\n", labeled["labeled"])

	// 3. Kick off an asynchronous round. 202 comes back immediately;
	// position 0 means a slot was free (a saturated server answers 429).
	curl("POST", "/v1/sessions/"+sess.ID+"/rounds", fmt.Sprintf(`-d '{"budget":%d}'`, budget))
	var kicked struct {
		Round         int    `json:"round"`
		Status        string `json:"status"`
		QueuePosition int    `json:"queue_position"`
	}
	post(hs.URL+"/v1/sessions/"+sess.ID+"/rounds", map[string]int{"budget": budget}, &kicked)
	fmt.Printf("  → round %d %s (queue position %d)\n\n", kicked.Round, kicked.Status, kicked.QueuePosition)

	// 4. Poll: a running round reports live RELAX progress; the state
	// behind it is checkpointed, so a crashed server resumes mid-solve.
	curl("GET", fmt.Sprintf("/v1/sessions/%s/rounds/%d", sess.ID, kicked.Round), "")
	var rv struct {
		Status          string `json:"status"`
		Error           string `json:"error"`
		Selected        []int  `json:"selected"`
		RelaxIteration  int    `json:"relax_iteration"`
		WorkersObserved int    `json:"workers_observed"`
	}
	for {
		get(hs.URL+fmt.Sprintf("/v1/sessions/%s/rounds/%d", sess.ID, kicked.Round), &rv)
		if rv.Status == "done" || rv.Status == "failed" {
			break
		}
		fmt.Printf("  … %s (relax iteration %d)\n", rv.Status, rv.RelaxIteration)
		time.Sleep(50 * time.Millisecond)
	}
	if rv.Status != "done" {
		log.Fatalf("round ended %s: %s", rv.Status, rv.Error)
	}
	fmt.Printf("  → done under %d scoped workers\n\n", rv.WorkersObserved)

	// 5. Fetch the selection: these are the global pool rows to label.
	curl("GET", fmt.Sprintf("/v1/sessions/%s/rounds/%d/selected", sess.ID, kicked.Round), "")
	var sel struct {
		Selected []int `json:"selected"`
	}
	get(hs.URL+fmt.Sprintf("/v1/sessions/%s/rounds/%d/selected", sess.ID, kicked.Round), &sel)
	fmt.Printf("  → label these rows next: %v\n\n", sel.Selected)

	// 6. The crawler found more unlabeled data: append it to the live
	// pool. Existing row indices stay stable (the selections above remain
	// valid), the new rows land behind them, and the next round scores the
	// grown pool. Appends are refused with 409 while a round is running —
	// a round's checkpoint assumes a fixed pool.
	ds2 := dataset.Generate(dataset.Config{
		Classes: classes, Dim: d, PoolSize: 1_000, EvalSize: classes,
		InitPerClass: 2, Rounds: 1, Budget: budget,
	}, 2)
	more := filepath.Join(dir, "more.shard")
	w2, err := dataset.CreateShard(more, d)
	if err != nil {
		log.Fatal(err)
	}
	if err := w2.AppendBlock(ds2.PoolX); err != nil {
		log.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		log.Fatal(err)
	}
	curl("POST", "/v1/sessions/"+sess.ID+"/pool", `-d '{"shards":["more.shard"]}'`)
	var grown struct {
		Rows       int   `json:"rows"`
		Generation int64 `json:"generation"`
	}
	post(hs.URL+"/v1/sessions/"+sess.ID+"/pool", map[string]any{"shards": []string{more}}, &grown)
	fmt.Printf("  → pool grown to %d rows (generation %d)\n\n", grown.Rows, grown.Generation)

	// 7. A second round excludes everything selected or index-labeled so
	// far and covers the appended rows. Server-side, mirror descent
	// warm-starts from round 1's converged weights (reprojected onto the
	// grown simplex) and, with the labeled set unchanged, only the
	// appended rows go through the model for probabilities.
	post(hs.URL+fmt.Sprintf("/v1/sessions/%s/rounds", sess.ID), map[string]int{"budget": budget}, &kicked)
	for {
		get(hs.URL+fmt.Sprintf("/v1/sessions/%s/rounds/%d", sess.ID, kicked.Round), &rv)
		if rv.Status == "done" || rv.Status == "failed" {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("round 2 selected %v — disjoint from round 1 and the tombstones\n\n", rv.Selected)

	// 8. Done: delete the session (cancels any running round, removes the
	// session directory).
	curl("DELETE", "/v1/sessions/"+sess.ID, "")
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/sessions/"+sess.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("  → %s\n", resp.Status)
}

// curl prints the equivalent command for a real firald deployment.
func curl(method, path, body string) {
	cmd := "curl"
	if method != "GET" {
		cmd += " -X " + method
	}
	if body != "" {
		cmd += " " + body
	}
	fmt.Printf("$ %s http://localhost:8080%s\n", cmd, path)
}

func post(url string, body, out any) {
	raw, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("POST %s: %s: %s", url, resp.Status, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatal(err)
		}
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
