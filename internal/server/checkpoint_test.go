package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/firal"
)

// TestCheckpointRoundTrip pins that the binary codec restores weights and
// objective history bit-for-bit — including values a text format would
// mangle (subnormals, exact dyadic fractions, huge magnitudes).
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	ck := &firal.RelaxCheckpoint{
		Iteration:    17,
		Done:         true,
		CGIterations: 423,
		Z:            []float64{0.1, 1.0 / 3.0, math.SmallestNonzeroFloat64, 1e300, 0.25},
		FHist:        []float64{3.75, math.Pi, -1e-12},
	}
	if err := writeCheckpoint(path, 5, ck); err != nil {
		t.Fatal(err)
	}
	round, got, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if round != 5 || got.Iteration != 17 || !got.Done || got.CGIterations != 423 {
		t.Fatalf("header mismatch: round=%d ck=%+v", round, got)
	}
	for i, z := range ck.Z {
		if math.Float64bits(got.Z[i]) != math.Float64bits(z) {
			t.Errorf("Z[%d]: %x != %x", i, math.Float64bits(got.Z[i]), math.Float64bits(z))
		}
	}
	for i, f := range ck.FHist {
		if math.Float64bits(got.FHist[i]) != math.Float64bits(f) {
			t.Errorf("FHist[%d] bits differ", i)
		}
	}
}

// TestWriteFileAtomicFailure pins the writer's failure path: when fill
// fails, the old file keeps its bytes and no temp file is left behind.
func TestWriteFileAtomicFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := writeFileAtomic(path, func(w *bufio.Writer) error {
		w.WriteString("new")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("writeFileAtomic returned %v, want the fill error", err)
	}
	if raw, _ := os.ReadFile(path); string(raw) != "old" {
		t.Fatalf("file holds %q after a failed write, want \"old\"", raw)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestCheckpointCorruption pins that truncated or foreign files are
// rejected with the path in the message, never partially decoded.
func TestCheckpointCorruption(t *testing.T) {
	dir := t.TempDir()

	bogus := filepath.Join(dir, "bogus.ckpt")
	os.WriteFile(bogus, []byte("not a checkpoint at all"), 0o644)
	if _, _, err := readCheckpoint(bogus); err == nil || !strings.Contains(err.Error(), bogus) {
		t.Fatalf("bogus file: %v", err)
	}

	path := filepath.Join(dir, "state.ckpt")
	ck := &firal.RelaxCheckpoint{Iteration: 3, Z: make([]float64, 100), FHist: []float64{1, 2, 3}}
	if err := writeCheckpoint(path, 1, ck); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)-40], 0o644)
	if _, _, err := readCheckpoint(path); err == nil {
		t.Fatal("truncated checkpoint decoded without error")
	}

	// A weight count whose byte length wraps past 2⁶⁴ must fail the length
	// check, not reach make and panic.
	wrap := filepath.Join(dir, "warm.ckpt")
	os.WriteFile(wrap, wrappedCheckpoint(), 0o644)
	if _, _, err := readCheckpoint(wrap); err == nil || !strings.Contains(err.Error(), wrap) {
		t.Fatalf("wrapping weight count: %v", err)
	}
}

// wrappedCheckpoint is a FIRALCK1 file whose weight count is 2⁶¹+1:
// 8 bytes per weight wraps that to 8 bytes, which the file still holds.
func wrappedCheckpoint() []byte {
	raw := []byte(ckptMagic)
	raw = binary.LittleEndian.AppendUint32(raw, 1) // round
	raw = binary.LittleEndian.AppendUint32(raw, 0) // iteration
	raw = append(raw, 0)                           // done
	raw = binary.LittleEndian.AppendUint64(raw, 0) // CG iterations
	raw = binary.LittleEndian.AppendUint64(raw, 1<<61+1)
	return binary.LittleEndian.AppendUint64(raw, 0)
}

// FuzzCheckpoint feeds arbitrary bytes to readCheckpoint. It must never
// panic, and whatever it accepts must survive writeCheckpoint and a
// second read bit for bit.
func FuzzCheckpoint(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.ckpt")
	ck := &firal.RelaxCheckpoint{Iteration: 4, Done: true, CGIterations: 9,
		Z: []float64{0.25, 0.75}, FHist: []float64{math.Pi}}
	if err := writeCheckpoint(seed, 2, ck); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-8])
	f.Add(wrappedCheckpoint())
	f.Add([]byte(ckptMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "state.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		round, ck, err := readCheckpoint(path)
		if err != nil {
			return
		}
		again := filepath.Join(dir, "again.ckpt")
		if err := writeCheckpoint(again, round, ck); err != nil {
			t.Fatal(err)
		}
		round2, ck2, err := readCheckpoint(again)
		if err != nil {
			t.Fatalf("rewritten checkpoint unreadable: %v", err)
		}
		if round2 != round || ck2.Iteration != ck.Iteration || ck2.Done != ck.Done ||
			ck2.CGIterations != ck.CGIterations || !sameBits(ck2.Z, ck.Z) || !sameBits(ck2.FHist, ck.FHist) {
			t.Fatalf("round trip changed the checkpoint: round %d %+v, then round %d %+v", round, ck, round2, ck2)
		}
	})
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
