package dataset

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/mat"
	"repro/internal/rnd"
)

// readAll drains a source through ReadRows in blocks of bs and returns
// the materialized matrix.
func readAll(t *testing.T, src PoolSource, bs int) *mat.Dense {
	t.Helper()
	n, d := src.NumRows(), src.Dim()
	out := mat.NewDense(n, d)
	for lo := 0; lo < n; lo += bs {
		hi := min(lo+bs, n)
		if err := src.ReadRows(lo, hi, out.RowSlice(lo, hi)); err != nil {
			t.Fatalf("ReadRows [%d, %d): %v", lo, hi, err)
		}
	}
	return out
}

func TestMatrixSourceRoundTrip(t *testing.T) {
	x := mat.NewDense(97, 7)
	rnd.New(1).Normal(x.Data, 0, 1)
	src := NewMatrixSource(x)
	got := readAll(t, src, 13) // ragged: 97 % 13 != 0
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			if got.At(i, j) != x.At(i, j) {
				t.Fatalf("row %d col %d: got %g want %g", i, j, got.At(i, j), x.At(i, j))
			}
		}
	}
	if v := src.ResidentRows(3, 5); &v[0] != &x.Data[3*7] {
		t.Fatal("ResidentRows is not a view of the backing storage")
	}
}

// TestShardRoundTrip writes a pool across two shard files and reads it
// back through every access path: full sweep, ragged blocks, windows
// crossing the file boundary. Values must match the float32 rounding of
// the originals exactly.
func TestShardRoundTrip(t *testing.T) {
	const n, d, split = 89, 5, 37
	x := mat.NewDense(n, d)
	rnd.New(2).Normal(x.Data, 0, 3)
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.shard"), filepath.Join(dir, "b.shard")}
	for s, span := range [][2]int{{0, split}, {split, n}} {
		w, err := CreateShard(paths[s], d)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendBlock(x.RowSlice(span[0], span[1])); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	src, err := OpenShards(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.NumRows() != n || src.Dim() != d {
		t.Fatalf("shape %d×%d, want %d×%d", src.NumRows(), src.Dim(), n, d)
	}
	want := func(i, j int) float64 { return float64(float32(x.At(i, j))) }
	for _, bs := range []int{1, 7, n, n + 3} {
		got := readAll(t, src, bs)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				if got.At(i, j) != want(i, j) {
					t.Fatalf("bs=%d row %d col %d: got %g want float32-rounded %g", bs, i, j, got.At(i, j), want(i, j))
				}
			}
		}
	}
	// A window straddling the file boundary.
	win := mat.NewDense(10, d)
	if err := src.ReadRows(split-4, split+6, win); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < d; j++ {
			if win.At(i, j) != want(split-4+i, j) {
				t.Fatalf("boundary window row %d: got %g want %g", i, win.At(i, j), want(split-4+i, j))
			}
		}
	}
}

func TestShardRejectsCorruptHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.shard")
	if err := os.WriteFile(path, []byte("NOTASHARDxxxxxxxxxxxxxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShards(path); err == nil {
		t.Fatal("OpenShards accepted a non-shard file")
	}
	w, err := CreateShard(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRow([]float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncate the payload below the declared row count.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShards(path); err == nil {
		t.Fatal("OpenShards accepted a truncated shard")
	}
}

func TestSubrangePreservesValuesAndResidency(t *testing.T) {
	x := mat.NewDense(50, 3)
	rnd.New(4).Normal(x.Data, 0, 1)
	sub := Subrange(NewMatrixSource(x), 10, 35)
	if sub.NumRows() != 25 {
		t.Fatalf("NumRows = %d, want 25", sub.NumRows())
	}
	if _, ok := sub.(Resident); !ok {
		t.Fatal("Subrange of a resident source lost the Resident fast path")
	}
	got := readAll(t, sub, 8)
	for i := 0; i < 25; i++ {
		for j := 0; j < 3; j++ {
			if got.At(i, j) != x.At(10+i, j) {
				t.Fatalf("row %d: got %g want %g", i, got.At(i, j), x.At(10+i, j))
			}
		}
	}
	if err := sub.ReadRows(20, 26, mat.NewDense(6, 3)); err == nil {
		t.Fatal("out-of-range window accepted")
	}
}

func TestCSVSourceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.csv")
	content := "f1,f2,label\n" +
		"0.5, -1.25,2\n" +
		"3.0,4.5,0\n" +
		"-2.25,0.125,1\n" +
		"7.5,-3.75,2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(path, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.NumRows() != 4 || src.Dim() != 2 {
		t.Fatalf("shape %d×%d, want 4×2", src.NumRows(), src.Dim())
	}
	wantLabels := []int{2, 0, 1, 2}
	for i, l := range src.Labels() {
		if l != wantLabels[i] {
			t.Fatalf("label %d = %d, want %d", i, l, wantLabels[i])
		}
	}
	want := [][]float64{{0.5, -1.25}, {3, 4.5}, {-2.25, 0.125}, {7.5, -3.75}}
	got := readAll(t, src, 3)
	for i := range want {
		for j := range want[i] {
			if got.At(i, j) != want[i][j] {
				t.Fatalf("row %d col %d: got %g want %g", i, j, got.At(i, j), want[i][j])
			}
		}
	}
	// Random-access window from the middle.
	win := mat.NewDense(2, 2)
	if err := src.ReadRows(1, 3, win); err != nil {
		t.Fatal(err)
	}
	if win.At(1, 0) != -2.25 {
		t.Fatalf("mid-window read got %g, want -2.25", win.At(1, 0))
	}
}

func TestCSVSourceRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, content string
		labelCol      int
	}{
		{"ragged", "1,2,0\n1,2,3,0\n", -1},
		{"nonnum", "1,x,0\n", -1},
		{"badlabel", "1,2,1.5\n", -1},
		{"empty", "\n\n", -1},
		{"unbalanced quote", "1,2,0\n\"1,2,0\n", -1},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".csv")
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewCSVSource(path, tc.labelCol); err == nil {
			t.Errorf("%s: malformed CSV accepted", tc.name)
		}
	}
}

// writeCSV writes content to a fresh file under t.TempDir and returns
// its path.
func writeCSV(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCSVSourceLoadBasic reads a labeled file with no header row.
func TestCSVSourceLoadBasic(t *testing.T) {
	src, err := NewCSVSource(writeCSV(t, "1.0,2.0,0\n3.5,4.5,1\n"), -1)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.NumRows() != 2 || src.Dim() != 2 {
		t.Fatalf("shape %d×%d, want 2×2", src.NumRows(), src.Dim())
	}
	if y := src.Labels(); !slices.Equal(y, []int{0, 1}) {
		t.Fatalf("labels %v", y)
	}
	if got := readAll(t, src, 2); got.At(1, 1) != 4.5 {
		t.Fatalf("feature value %g, want 4.5", got.At(1, 1))
	}
}

// TestCSVSourceHeaderSkipped pins that a non-numeric first row is a
// header, not a data row.
func TestCSVSourceHeaderSkipped(t *testing.T) {
	src, err := NewCSVSource(writeCSV(t, "f1,f2,label\n1,2,0\n3,4,1\n"), -1)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.NumRows() != 2 || len(src.Labels()) != 2 {
		t.Fatalf("rows %d/%d, want 2/2", src.NumRows(), len(src.Labels()))
	}
}

// TestCSVSourceLoadErrors covers the files the CLI must refuse: no data
// rows, no feature column, a bad label or feature cell, a label column
// past the last column, and a missing file.
func TestCSVSourceLoadErrors(t *testing.T) {
	for _, tc := range []struct {
		name, content string
		labelCol      int
	}{
		{"empty", "", -1},
		{"header only", "a,b\n", -1},
		{"one column", "1\n2\n", -1},
		// A non-numeric first row is a header by design, so the malformed
		// cells below sit in second rows.
		{"not an integer label", "1,2,0\n1,2,x\n", -1},
		{"negative label", "1,2,0\n1,2,-1\n", -1},
		{"bad feature", "1,2,0\nx?,2,0\n", -1},
		{"label column out of range", "1,2,0\n", 7},
	} {
		if _, err := NewCSVSource(writeCSV(t, tc.content), tc.labelCol); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := NewCSVSource(filepath.Join(t.TempDir(), "missing.csv"), -1); err == nil {
		t.Error("missing file: expected error")
	}
}

// TestCSVSourceRaggedRowsRejected pins that a row shorter than the first
// is an error, not a row padded or cut to fit.
func TestCSVSourceRaggedRowsRejected(t *testing.T) {
	if _, err := NewCSVSource(writeCSV(t, "1,2,0\n1,2\n"), -1); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

// TestCSVSourceLabelColumnAndQuotes pins the accepted grammar: any label
// column, surrounding spaces, and one pair of double quotes around a
// cell, which parse to the same float64 bits as the bare cell.
func TestCSVSourceLabelColumnAndQuotes(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, content string
		labelCol      int
		x             [][]float64
		y             []int
	}{
		{"label column 0", "2,0.5,0.7\n1,0.1,0.2\n", 0,
			[][]float64{{0.5, 0.7}, {0.1, 0.2}}, []int{2, 1}},
		{"quoted cells", "\"f1\",\"f2\",\"label\"\n\"1.5\", \"-2e-3\",\"1\"\n 0.1 ,\"0.30000000000000004\",0\n", -1,
			[][]float64{{1.5, -2e-3}, {0.1, 0.30000000000000004}}, []int{1, 0}},
		{"quoted comma in header", "\"a,b\",c,label\n1,2,0\n", -1,
			[][]float64{{1, 2}}, []int{0}},
		{"quoted first row is data", "\"1\",\"2\",\"0\"\n3,4,1\n", -1,
			[][]float64{{1, 2}, {3, 4}}, []int{0, 1}},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".csv")
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := NewCSVSource(path, tc.labelCol)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := readAll(t, src, 1)
		src.Close()
		if got.Rows != len(tc.x) || !slices.Equal(src.Labels(), tc.y) {
			t.Fatalf("%s: %d rows, labels %v; want %d rows, labels %v", tc.name, got.Rows, src.Labels(), len(tc.x), tc.y)
		}
		for i, row := range tc.x {
			for j, v := range row {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(v) {
					t.Fatalf("%s: row %d col %d = %v, want %v", tc.name, i, j, got.At(i, j), v)
				}
			}
		}
	}
}

// FuzzCSVSource feeds arbitrary bytes to the CSV reader: opening never
// panics, and an opened file reads back consistently — the whole-file
// read succeeds, every single-row window equals its row of it bit for
// bit, and there is one label per row (none without a label column).
func FuzzCSVSource(f *testing.F) {
	for _, seed := range []string{
		"1.0,2.0,0\n3.5,4.5,1\n",
		"f1,f2,label\n1,2,0\n3,4,1\n",
		"2,0.5,0.7\n1,0.1,0.2\n",
		"\nf1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n",
		"\"f1\",\"f2\",\"label\"\n\"1.5\", \"-2e-3\",\"1\"\r\n0.1,NaN,0",
		"1,2,0\n1,2\n",
		"1,2,0\n1,2,-1\n",
		"a,b\n",
		"1\n2\n",
		"",
	} {
		for sel := range uint8(3) {
			f.Add([]byte(seed), sel)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		labelCol := []int{-1, 0, NoLabelColumn}[sel%3]
		path := filepath.Join(t.TempDir(), "fuzz.csv")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := NewCSVSource(path, labelCol)
		if err != nil {
			return
		}
		defer src.Close()
		n, d := src.NumRows(), src.Dim()
		all := mat.NewDense(n, d)
		if err := src.ReadRows(0, n, all); err != nil {
			t.Fatalf("ReadRows(0, %d) after a successful open: %v", n, err)
		}
		row := mat.NewDense(1, d)
		for i := 0; i < n; i++ {
			if err := src.ReadRows(i, i+1, row); err != nil {
				t.Fatalf("ReadRows(%d, %d): %v", i, i+1, err)
			}
			for j, v := range row.Row(0) {
				if math.Float64bits(v) != math.Float64bits(all.At(i, j)) {
					t.Fatalf("row %d col %d: single-row read %v, whole read %v", i, j, v, all.At(i, j))
				}
			}
		}
		switch labels := src.Labels(); {
		case labelCol == NoLabelColumn && labels != nil:
			t.Fatalf("NoLabelColumn returned %d labels", len(labels))
		case labelCol != NoLabelColumn && len(labels) != n:
			t.Fatalf("%d labels for %d rows", len(labels), n)
		}
	})
}

// TestPackShard pins the one CSV→shard packer: a packed pool reads back
// as its float32 rounding, and a source failing on its second block
// leaves no file behind.
func TestPackShard(t *testing.T) {
	dir := t.TempDir()
	x := mat.NewDense(DefaultBlockRows+10, 3)
	rnd.New(4).Normal(x.Data, 0, 1)
	path := filepath.Join(dir, "pool.shard")
	if err := PackShard(path, NewMatrixSource(x)); err != nil {
		t.Fatal(err)
	}
	src, err := OpenShards(path)
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, src, 1000)
	src.Close()
	for i, v := range x.Data {
		if got.Data[i] != float64(float32(v)) {
			t.Fatalf("element %d: got %v, want float32(%v)", i, got.Data[i], v)
		}
	}

	// The second block lands in a segment whose reads fail.
	live := NewLiveSource(NewMatrixSource(x.RowSlice(0, DefaultBlockRows)))
	sentinel := errors.New("read failed")
	if _, err := live.Append(&failingSource{rows: 10, d: 3, err: sentinel}); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.shard")
	if err := PackShard(bad, live); !errors.Is(err, sentinel) {
		t.Fatalf("PackShard over a failing source: err = %v, want the read error", err)
	}
	if _, err := os.Stat(bad); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("partial shard left behind: stat err = %v", err)
	}
}

// TestCSVSourceLeadingBlankAndHeader pins encoding/csv's blank-line
// handling: a blank line before the header must not demote the header to
// a parse error.
func TestCSVSourceLeadingBlankAndHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blank.csv")
	if err := os.WriteFile(path, []byte("\nf1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(path, -1)
	if err != nil {
		t.Fatalf("blank line before header rejected: %v", err)
	}
	defer src.Close()
	if src.NumRows() != 2 || src.Dim() != 2 {
		t.Fatalf("shape %d×%d, want 2×2", src.NumRows(), src.Dim())
	}
}

// TestCSVSourceRejectsAmbiguousLabelCol pins the labelCol contract:
// negative values other than -1 (last) and NoLabelColumn are rejected so
// they can't silently pack the label column as a feature.
func TestCSVSourceRejectsAmbiguousLabelCol(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ok.csv")
	if err := os.WriteFile(path, []byte("1.0,2.0,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCSVSource(path, -3); err == nil {
		t.Fatal("labelCol -3 accepted; want an explicit error")
	}
}

func TestCSVSourceFeatureOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feat.csv")
	if err := os.WriteFile(path, []byte("1.5,2.5\n3.5,4.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewCSVSource(path, NoLabelColumn)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.Dim() != 2 || src.Labels() != nil {
		t.Fatalf("feature-only file: dim %d labels %v", src.Dim(), src.Labels())
	}
	got := readAll(t, src, 1)
	if got.At(1, 1) != 4.5 {
		t.Fatalf("got %g, want 4.5", got.At(1, 1))
	}
}

// TestShardWriterFloat32Rounding documents the shard precision contract:
// values survive exactly as their float32 rounding.
func TestShardWriterFloat32Rounding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pi.shard")
	w, err := CreateShard(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRow([]float64{math.Pi}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := OpenShards(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got := mat.NewDense(1, 1)
	if err := src.ReadRows(0, 1, got); err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0) != float64(float32(math.Pi)) {
		t.Fatalf("got %v, want float32(π)", got.At(0, 0))
	}
	if got.At(0, 0) == math.Pi {
		t.Fatal("shard kept float64 precision; expected float32 storage")
	}
}

// TestBlockRowsFor pins the one block-size rule: a pool of up to 256 rows
// is one block, smaller pools take the largest power of two ≤ n/16 (at
// least 256), and pools of 65,536 rows or more take DefaultBlockRows.
func TestBlockRowsFor(t *testing.T) {
	for _, n := range []int{1, 100, 255, 256} {
		if bs := BlockRowsFor(n); (n+bs-1)/bs != 1 {
			t.Errorf("BlockRowsFor(%d) = %d: %d blocks, want 1", n, bs, (n+bs-1)/bs)
		}
	}
	for _, tc := range []struct{ n, want int }{
		{600, 256},
		{4096, 256},
		{5000, 256},
		{8191, 256},
		{8192, 512},
		{10000, 512},
		{12500, 512},
		{20000, 1024},
		{65535, 2048},
		{65536, DefaultBlockRows},
		{1_000_000, DefaultBlockRows},
	} {
		if got := BlockRowsFor(tc.n); got != tc.want {
			t.Errorf("BlockRowsFor(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
