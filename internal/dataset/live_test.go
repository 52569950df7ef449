package dataset

import (
	"path/filepath"
	"testing"

	"repro/internal/mat"
)

func denseRows(n, d int, base float64) *mat.Dense {
	x := mat.NewDense(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, base+float64(i*d+j))
		}
	}
	return x
}

// TestLiveSourceAppendVisible pins the delta contract: rows appended to a
// live pool become visible to an already-open reader without reopening,
// existing row indices never move, and Append's generation count ticks
// once per append.
func TestLiveSourceAppendVisible(t *testing.T) {
	const d = 3
	base := denseRows(4, d, 0)
	live := NewLiveSource(NewMatrixSource(base))
	if live.NumRows() != 4 || live.Dim() != d {
		t.Fatalf("fresh live pool is %d×%d, want 4×%d", live.NumRows(), live.Dim(), d)
	}

	gen, err := live.Append(NewMatrixSource(denseRows(3, d, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("after one append: generation %d, want 1", gen)
	}
	if live.NumRows() != 7 {
		t.Fatalf("after append: %d rows, want 7", live.NumRows())
	}

	// A window crossing the segment seam sees base rows then appended rows.
	got := mat.NewDense(4, d)
	if err := live.ReadRows(2, 6, got); err != nil {
		t.Fatal(err)
	}
	want := []float64{2 * d, 3 * d, 100, 100 + d}
	for r, w := range want {
		if got.At(r, 0) != w {
			t.Fatalf("row %d col 0 = %g, want %g", r, got.At(r, 0), w)
		}
	}

	// Dimension mismatches are refused without mutating the pool.
	if gen, err := live.Append(NewMatrixSource(denseRows(2, d+1, 0))); err == nil {
		t.Fatal("appending a mismatched-dimension segment succeeded")
	} else if live.NumRows() != 7 || gen != 1 {
		t.Fatalf("failed append mutated the pool: %d rows gen %d", live.NumRows(), gen)
	}
}

// TestLiveSourceSubrangePins verifies the session idiom: a solver that
// needs a fixed n for one round wraps the live pool in Subrange and keeps
// seeing exactly those rows while appends land.
func TestLiveSourceSubrangePins(t *testing.T) {
	const d = 2
	live := NewLiveSource(NewMatrixSource(denseRows(5, d, 0)))
	pinned := Subrange(live, 0, 5)
	if _, err := live.Append(NewMatrixSource(denseRows(4, d, 500))); err != nil {
		t.Fatal(err)
	}
	if pinned.NumRows() != 5 {
		t.Fatalf("pinned view grew to %d rows", pinned.NumRows())
	}
	if live.NumRows() != 9 {
		t.Fatalf("live pool has %d rows, want 9", live.NumRows())
	}
	got := mat.NewDense(5, d)
	if err := pinned.ReadRows(0, 5, got); err != nil {
		t.Fatal(err)
	}
	if got.At(4, 0) != 4*d {
		t.Fatalf("pinned row 4 = %g, want %g", got.At(4, 0), float64(4*d))
	}
}

// TestLiveSourceOverShards drives the live layer over real shard files —
// the service configuration, where appends are freshly packed shards.
func TestLiveSourceOverShards(t *testing.T) {
	const d = 4
	dir := t.TempDir()
	write := func(name string, x *mat.Dense) string {
		path := filepath.Join(dir, name)
		w, err := CreateShard(path, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendBlock(x); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, err := OpenShards(write("base.shard", denseRows(6, d, 0)))
	if err != nil {
		t.Fatal(err)
	}
	live := NewLiveSource(base)
	defer live.Close()
	delta, err := OpenShards(write("delta.shard", denseRows(2, d, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Append(delta); err != nil {
		t.Fatal(err)
	}
	got := mat.NewDense(3, d)
	if err := live.ReadRows(5, 8, got); err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0) != 5*d || got.At(1, 0) != 1000 || got.At(2, 0) != 1000+d {
		t.Fatalf("seam read = %g %g %g", got.At(0, 0), got.At(1, 0), got.At(2, 0))
	}
}
