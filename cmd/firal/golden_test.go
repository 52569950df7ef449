package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// writeGoldenCSV writes n rows of d features plus an integer label in
// [0, c), with a header, values formatted by strconv 'g' −1 so the file
// is the same bytes on every platform.
func writeGoldenCSV(t *testing.T, path string, n, d, c int, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 7))
	var b bytes.Buffer
	for j := 0; j < d; j++ {
		fmt.Fprintf(&b, "f%d,", j)
	}
	b.WriteString("label\n")
	for i := 0; i < n; i++ {
		k := i % c
		for j := 0; j < d; j++ {
			v := rng.NormFloat64()
			if j%c == k {
				v += 2
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(k))
		b.WriteByte('\n')
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCLIGolden drives the built binary through the CSV paths end to
// end — a resident -pool/-labeled/-eval run, -pack, and -shards with
// approx-firal and with three dist-firal ranks — over a pool larger than
// one 4,096-row block, and compares the selections and the shard's
// SHA-256 with testdata/cli.golden. A mismatch prints the new output,
// which replaces the golden file only when a change of selections is
// intended.
func TestCLIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "firal")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	pool := filepath.Join(dir, "pool.csv")
	lab := filepath.Join(dir, "labeled.csv")
	eval := filepath.Join(dir, "eval.csv")
	writeGoldenCSV(t, pool, 5000, 12, 4, 1)
	writeGoldenCSV(t, lab, 16, 12, 4, 2)
	writeGoldenCSV(t, eval, 200, 12, 4, 3)
	shard := filepath.Join(dir, "pool.shard")

	run := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("firal %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
		return stdout.String()
	}

	var got strings.Builder
	// The -csv output's last column is the selection; the timing columns
	// vary run to run.
	for _, line := range strings.Split(strings.TrimSpace(run(
		"-pool", pool, "-labeled", lab, "-eval", eval, "-csv", "-rounds", "2", "-budget", "4")), "\n")[1:] {
		cols := strings.Split(line, ",")
		fmt.Fprintf(&got, "resident: %s\n", cols[len(cols)-1])
	}
	run("-pack", shard, "-pool", pool)
	raw, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	fmt.Fprintf(&got, "pack sha256: %s\n", hex.EncodeToString(sum[:]))
	fields := func(s string) string { return strings.Join(strings.Fields(s), " ") }
	fmt.Fprintf(&got, "shards approx-firal: %s\n",
		fields(run("-shards", shard, "-labeled", lab, "-budget", "4", "-seed", "3")))
	fmt.Fprintf(&got, "shards dist-firal -ranks 3: %s\n",
		fields(run("-shards", shard, "-labeled", lab, "-budget", "4", "-seed", "3", "-select", "dist-firal", "-ranks", "3")))

	golden := filepath.Join("testdata", "cli.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("CLI output differs from %s:\ngot:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}

// TestLoadCSVNeedsLabelColumn pins that -labelcol -2 (no label column)
// fails in every mode that needs labels instead of reading the last
// column as a label.
func TestLoadCSVNeedsLabelColumn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labeled.csv")
	if err := os.WriteFile(path, []byte("x,y,label\n1.5,0.1,0\n-2e-3,7,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadCSV(path, dataset.NoLabelColumn); err == nil || !strings.Contains(err.Error(), "no label column") {
		t.Fatalf("loadCSV with -labelcol -2: err = %v, want a no-label-column error", err)
	}
	err := streamSelect(streamConfig{selector: "approx-firal", labeled: path, labelCol: dataset.NoLabelColumn})
	if err == nil || !strings.Contains(err.Error(), "no label column") {
		t.Fatalf("-shards with -labelcol -2: err = %v, want a no-label-column error", err)
	}
}
