package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dataset"
)

// buildFirald compiles the daemon once per test binary.
func buildFirald(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "firald")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startFirald launches the daemon on an ephemeral port and returns its
// base URL plus the process handle.
func startFirald(t *testing.T, bin, dataDir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "listening "); ok {
			go func() { // drain any further stdout so the child never blocks
				for sc.Scan() {
				}
			}()
			return cmd, "http://" + addr
		}
	}
	cmd.Process.Kill()
	t.Fatalf("firald never printed its address (scanner err: %v)", sc.Err())
	return nil, ""
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

type roundStatus struct {
	Status   string `json:"status"`
	Error    string `json:"error"`
	Selected []int  `json:"selected"`
}

// waitDone polls a round until done/failed, tolerating connection errors
// while the daemon restarts.
func waitDone(t *testing.T, base, id string, timeout time.Duration) roundStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/sessions/" + id + "/rounds/1")
		if err == nil {
			var rs roundStatus
			json.NewDecoder(resp.Body).Decode(&rs)
			resp.Body.Close()
			switch rs.Status {
			case "done", "failed":
				return rs
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("round not done after %v", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestKillMidRoundResume is the end-to-end crash test: SIGKILL the daemon
// while a round is mid-RELAX, restart it over the same data directory,
// and require the resumed round to select exactly what an uninterrupted
// daemon selects from the same inputs.
func TestKillMidRoundResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := buildFirald(t)

	// Shared pool shard + labeled seed set.
	poolDir := t.TempDir()
	ds := dataset.Generate(dataset.Config{
		Classes: 3, Dim: 8, PoolSize: 500, EvalSize: 3, InitPerClass: 3, Rounds: 1, Budget: 1,
	}, 61)
	shard := filepath.Join(poolDir, "pool.shard")
	w, err := dataset.CreateShard(shard, 8)
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
	create := map[string]any{
		"shards":            []string{shard},
		"labeled":           map[string]any{"x": labX, "y": ds.LabeledY},
		"seed":              99,
		"selector":          "Approx-FIRAL",
		"probes":            4,
		"fixed_relax_iters": 25,
	}
	newSession := func(base string) string {
		var sv struct {
			ID string `json:"id"`
		}
		if code := postJSON(t, base+"/v1/sessions", create, &sv); code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
		if code := postJSON(t, base+"/v1/sessions/"+sv.ID+"/rounds", map[string]int{"budget": 6}, nil); code != http.StatusAccepted {
			t.Fatalf("kick: status %d", code)
		}
		return sv.ID
	}

	// Reference run: uninterrupted daemon, fresh data dir.
	refCmd, refBase := startFirald(t, bin, t.TempDir())
	defer refCmd.Process.Kill()
	refID := newSession(refBase)
	ref := waitDone(t, refBase, refID, 60*time.Second)
	if ref.Status != "done" {
		t.Fatalf("reference round: %s %s", ref.Status, ref.Error)
	}
	refCmd.Process.Kill()
	refCmd.Wait()

	// Victim run: SIGKILL as soon as the first RELAX state lands on disk.
	dataDir := t.TempDir()
	cmd, base := startFirald(t, bin, dataDir)
	id := newSession(base)
	ckpt := filepath.Join(dataDir, id, "warm.ckpt")
	for deadline := time.Now().Add(60 * time.Second); ; {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("no checkpoint appeared before the kill window closed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// The round may have finished in the instants before the kill; only a
	// genuinely interrupted solve exercises resume.
	var sess struct {
		Rounds []roundStatus `json:"rounds"`
	}
	raw, err := os.ReadFile(filepath.Join(dataDir, id, "session.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &sess); err != nil {
		t.Fatal(err)
	}
	if len(sess.Rounds) == 1 && sess.Rounds[0].Status == "done" {
		t.Skip("round completed before SIGKILL landed; nothing to resume")
	}

	// Restart over the same data dir: recovery re-enqueues the round and
	// resumes RELAX from the checkpoint without any client action.
	cmd2, base2 := startFirald(t, bin, dataDir)
	defer cmd2.Process.Kill()
	resumed := waitDone(t, base2, id, 120*time.Second)
	if resumed.Status != "done" {
		t.Fatalf("resumed round: %s %s", resumed.Status, resumed.Error)
	}
	if fmt.Sprint(resumed.Selected) != fmt.Sprint(ref.Selected) {
		t.Fatalf("kill-resume selection diverged:\nresumed   %v\nreference %v",
			resumed.Selected, ref.Selected)
	}
}

// TestSlowHeaderClientDisconnected pins the header timeout: a client
// that sends half a request line and then nothing is disconnected once
// readHeaderTimeout has passed, while a normal request on another
// connection is served meanwhile.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cmd, base := startFirald(t, buildFirald(t), t.TempDir())
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	start := time.Now() // before the dial, so before the daemon's header clock starts
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/hea"); err != nil {
		t.Fatal(err)
	}
	const slack = 5 * time.Second
	conn.SetReadDeadline(start.Add(readHeaderTimeout + slack))

	if code := getJSON(t, base+"/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz beside a stalled client: status %d", code)
	}
	var ne net.Error
	if _, err := io.ReadAll(conn); errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}
	if took := time.Since(start); took < readHeaderTimeout {
		t.Fatalf("stalled client disconnected after %v, before the %v header timeout", took, readHeaderTimeout)
	}
}
