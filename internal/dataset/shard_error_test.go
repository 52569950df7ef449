package dataset

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mat"
)

// writeTestShard packs rows·dim counter features into a shard at path.
func writeTestShard(t *testing.T, path string, rows, dim int) {
	t.Helper()
	w, err := CreateShard(path, dim)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.NewDense(rows, dim)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	if err := w.AppendBlock(x); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenShardsActionableErrors pins that every open-time failure names
// the offending file and, where shapes are involved, spells out the
// expected row/dim arithmetic — a misregistered pool path must fail with a
// message the client can act on, not a bare errno.
func TestOpenShardsActionableErrors(t *testing.T) {
	dir := t.TempDir()

	t.Run("missing file", func(t *testing.T) {
		missing := filepath.Join(dir, "nope.shard")
		_, err := OpenShards(missing)
		if err == nil {
			t.Fatal("want error for missing shard")
		}
		if !strings.Contains(err.Error(), missing) {
			t.Errorf("error does not name the missing path: %v", err)
		}
	})

	t.Run("bad magic", func(t *testing.T) {
		bogus := filepath.Join(dir, "bogus.shard")
		if err := os.WriteFile(bogus, []byte("definitely not a shard header"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenShards(bogus)
		if err == nil {
			t.Fatal("want error for non-shard file")
		}
		if !strings.Contains(err.Error(), bogus) || !strings.Contains(err.Error(), "FIRALSH1") {
			t.Errorf("error should name the path and the expected magic: %v", err)
		}
	})

	t.Run("truncated payload", func(t *testing.T) {
		trunc := filepath.Join(dir, "trunc.shard")
		writeTestShard(t, trunc, 10, 4)
		// Chop two rows off the payload; the header still promises 10.
		if err := os.Truncate(trunc, int64(shardHeaderSize+8*4*4)); err != nil {
			t.Fatal(err)
		}
		_, err := OpenShards(trunc)
		if err == nil {
			t.Fatal("want error for truncated shard")
		}
		msg := err.Error()
		for _, want := range []string{trunc, "10 rows", "4 dims", "truncated"} {
			if !strings.Contains(msg, want) {
				t.Errorf("truncation error missing %q: %v", want, err)
			}
		}
	})

	t.Run("append block mismatch names shard and row range", func(t *testing.T) {
		path := filepath.Join(dir, "ctx.shard")
		w, err := CreateShard(path, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendBlock(mat.NewDense(10, 4)); err != nil {
			t.Fatal(err)
		}
		err = w.AppendBlock(mat.NewDense(6, 5))
		if err == nil {
			t.Fatal("mismatched block accepted")
		}
		for _, want := range []string{path, "[10, 16)", "5 features", "want 4"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
		// The writer latches the error; later appends re-report it so a
		// packing loop cannot silently continue past a bad producer.
		if err2 := w.AppendBlock(mat.NewDense(1, 4)); err2 == nil || !strings.Contains(err2.Error(), "[10, 16)") {
			t.Errorf("latched writer error = %v, want the original mismatch", err2)
		}
		w.Close()
	})

	t.Run("dimension mismatch names both shards", func(t *testing.T) {
		a := filepath.Join(dir, "a.shard")
		b := filepath.Join(dir, "b.shard")
		writeTestShard(t, a, 3, 4)
		writeTestShard(t, b, 3, 5)
		_, err := OpenShards(a, b)
		if err == nil {
			t.Fatal("want error for mismatched dimensions")
		}
		msg := err.Error()
		if !strings.Contains(msg, a) || !strings.Contains(msg, b) {
			t.Errorf("mismatch error should name both shards: %v", err)
		}
	})
}

// shardHeader is a 20-byte shard header declaring rows × d.
func shardHeader(d uint32, rows uint64) []byte {
	h := []byte(shardMagic)
	h = binary.LittleEndian.AppendUint32(h, d)
	return binary.LittleEndian.AppendUint64(h, rows)
}

// FuzzShardHeader opens arbitrary bytes as a shard and reads every row.
// The oracle: nothing panics, and a file that opens reads back in full —
// the open-time checks must catch every header the reads cannot serve.
func FuzzShardHeader(f *testing.F) {
	valid := shardHeader(2, 3)
	for i := 0; i < 6; i++ {
		valid = binary.LittleEndian.AppendUint32(valid, math.Float32bits(float32(i)))
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add(shardHeader(8, 1<<61)) // 2⁶¹ × 8 × 4 bytes wraps to 0
	f.Add(shardHeader(1<<31, 1<<33))
	f.Add(shardHeader(0, 0))
	f.Add(shardHeader(3, 0))
	f.Add([]byte("FIRALSH1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.shard")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenShards(path)
		if err != nil {
			return
		}
		defer src.Close()
		n, d := src.NumRows(), src.Dim()
		const block = 7
		for lo := 0; lo < n; lo += block {
			hi := min(lo+block, n)
			if err := src.ReadRows(lo, hi, mat.NewDense(hi-lo, d)); err != nil {
				t.Fatalf("ReadRows(%d, %d) of an open %d×%d shard: %v", lo, hi, n, d, err)
			}
		}
	})
}

// FuzzShardRows writes arbitrary payload bytes as a shard of dimension
// 1 + dim%70 and reads every row back, in blocks that start anywhere, into
// a contiguous destination (one widen over the whole range) and a strided
// one (a widen per row). The oracle: every element has the bits of the
// portable conversion of its little-endian float32, NaN payloads
// included.
func FuzzShardRows(f *testing.F) {
	var specials []byte
	for _, v := range []uint32{0, 0x80000000, 1, 0x807fffff, 0x7f800000, 0xff800000, 0x7fc12345, 0x7f800001, 0xffa00000, 0x3f800000} {
		specials = binary.LittleEndian.AppendUint32(specials, v)
	}
	f.Add(uint8(3), uint8(2), specials)
	f.Add(uint8(15), uint8(5), append(specials, specials...))
	f.Add(uint8(63), uint8(7), make([]byte, 64*4*9+3))
	f.Fuzz(func(t *testing.T, dim, block uint8, payload []byte) {
		d := 1 + int(dim)%70
		rows := len(payload) / (4 * d)
		payload = payload[:rows*d*4]
		path := filepath.Join(t.TempDir(), "rows.shard")
		if err := os.WriteFile(path, append(shardHeader(uint32(d), uint64(rows)), payload...), 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenShards(path)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		bs := 1 + int(block)%9
		for _, stride := range []int{d, d + 1} {
			for lo := 0; lo < rows; lo += bs {
				hi := min(lo+bs, rows)
				dst := &mat.Dense{Rows: hi - lo, Cols: d, Stride: stride, Data: make([]float64, (hi-lo)*stride)}
				if err := src.ReadRows(lo, hi, dst); err != nil {
					t.Fatalf("ReadRows(%d, %d): %v", lo, hi, err)
				}
				for i := lo; i < hi; i++ {
					for j, got := range dst.Row(i - lo) {
						bits := binary.LittleEndian.Uint32(payload[(i*d+j)*4:])
						want := float64(math.Float32frombits(bits))
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("row %d col %d (float32 %08x, stride %d): %x, want %x", i, j, bits, stride,
								math.Float64bits(got), math.Float64bits(want))
						}
					}
				}
			}
		}
	})
}

// TestShardTruncatedAfterOpen shrinks a shard under an open source. A
// read of rows past the new end must fail and name the shard, both when
// they lie in pages wholly past it (a mapping faults there, which used to
// kill the process with SIGBUS) and when they share the page of the new
// end (a mapping reads zeros there): a 150×6 pool, 3,620 bytes in one
// page, truncated to its 20-byte header.
func TestShardTruncatedAfterOpen(t *testing.T) {
	for _, tc := range []struct {
		rows, dim, lo int
		size          int64
	}{
		{8192, 4, 8192 - 64, shardHeaderSize + 16}, // 128 KiB of payload: many pages
		{150, 6, 0, shardHeaderSize},
	} {
		path := filepath.Join(t.TempDir(), "shrinks.shard")
		writeTestShard(t, path, tc.rows, tc.dim)
		src, err := OpenShards(path)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		if err := os.Truncate(path, tc.size); err != nil {
			t.Fatal(err)
		}
		if err := src.ReadRows(tc.lo, tc.rows, mat.NewDense(tc.rows-tc.lo, tc.dim)); err == nil {
			t.Fatalf("%d×%d: reading rows past the truncated end succeeded", tc.rows, tc.dim)
		} else if !strings.Contains(err.Error(), path) {
			t.Fatalf("%d×%d: error %v does not name the shard", tc.rows, tc.dim, err)
		}
	}
}
