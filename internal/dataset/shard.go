package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sync"

	"repro/internal/mat"
)

// Shard files hold pool features as float32, the precision the paper's
// GPU implementation uses, at half the footprint of the float64 solver
// state. The fixed little-endian layout is
//
//	offset 0   8 bytes   magic "FIRALSH1"
//	offset 8   uint32    feature dimension d
//	offset 12  uint64    row count
//	offset 20  rows·d    float32 features, row-major
//
// A pool may span several shard files (written by independent producers);
// ShardSource concatenates them in argument order. On unix the payload is
// memory-mapped, so scoring a million-row pool touches pages on demand
// instead of materializing an n×d float64 matrix; elsewhere reads fall
// back to pread.

const (
	shardMagic      = "FIRALSH1"
	shardHeaderSize = 20
)

// ShardWriter streams rows into one shard file. It never holds more than
// its bufio buffer in memory, so paper-scale pools can be packed block by
// block.
type ShardWriter struct {
	f    *os.File
	w    *bufio.Writer
	path string
	d    int
	rows int
	buf  []byte // one encoded row (d·4 bytes), reused across appends
	err  error
}

// CreateShard creates path and returns a writer for d-dimensional rows.
func CreateShard(path string, d int) (*ShardWriter, error) {
	if d <= 0 {
		return nil, fmt.Errorf("dataset: shard dimension must be positive, got %d", d)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sw := &ShardWriter{f: f, w: bufio.NewWriterSize(f, 1<<20), path: path, d: d, buf: make([]byte, d*4)}
	var hdr [shardHeaderSize]byte
	copy(hdr[:8], shardMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(d))
	// Row count is patched on Close.
	if _, err := sw.w.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("dataset: shard %s: write header: %w", path, err)
	}
	return sw, nil
}

// AppendRow writes one feature row (rounded to float32).
func (sw *ShardWriter) AppendRow(x []float64) error {
	if sw.err != nil {
		return sw.err
	}
	if len(x) != sw.d {
		sw.err = fmt.Errorf("dataset: shard %s: row has %d features, want %d", sw.path, len(x), sw.d)
		return sw.err
	}
	for j, v := range x {
		binary.LittleEndian.PutUint32(sw.buf[j*4:], math.Float32bits(float32(v)))
	}
	if _, err := sw.w.Write(sw.buf); err != nil {
		// Keep the cause in the chain: a caller distinguishing disk-full
		// from corruption needs errors.Is/As through the shard context.
		sw.err = fmt.Errorf("dataset: shard %s: write row %d: %w", sw.path, sw.rows, err)
		return sw.err
	}
	sw.rows++
	return nil
}

// AppendBlock writes every row of x. A dimension mismatch is reported
// with the shard path and the offending block's row range, so a
// multi-source packing job (several producers feeding one shard set)
// learns exactly which file and which rows were being appended.
func (sw *ShardWriter) AppendBlock(x *mat.Dense) error {
	if sw.err != nil {
		return sw.err
	}
	start := sw.rows
	if x.Cols != sw.d {
		sw.err = fmt.Errorf("dataset: shard %s: block for rows [%d, %d) has %d features, want %d",
			sw.path, start, start+x.Rows, x.Cols, sw.d)
		return sw.err
	}
	for i := 0; i < x.Rows; i++ {
		if err := sw.AppendRow(x.Row(i)); err != nil {
			return fmt.Errorf("dataset: shard %s: appending block rows [%d, %d): %w",
				sw.path, start, start+x.Rows, err)
		}
	}
	return nil
}

// Close flushes the payload, patches the row count into the header,
// fsyncs the file and closes it, so a closed shard is on stable storage.
func (sw *ShardWriter) Close() error {
	if flushErr := sw.w.Flush(); sw.err == nil && flushErr != nil {
		sw.err = fmt.Errorf("dataset: shard %s: flush: %w", sw.path, flushErr)
	}
	if sw.err == nil {
		var cnt [8]byte
		binary.LittleEndian.PutUint64(cnt[:], uint64(sw.rows))
		if _, err := sw.f.WriteAt(cnt[:], 12); err != nil {
			sw.err = fmt.Errorf("dataset: shard %s: patch row count: %w", sw.path, err)
		} else if err := sw.f.Sync(); err != nil {
			sw.err = fmt.Errorf("dataset: shard %s: fsync: %w", sw.path, err)
		}
	}
	if closeErr := sw.f.Close(); sw.err == nil && closeErr != nil {
		sw.err = fmt.Errorf("dataset: shard %s: close: %w", sw.path, closeErr)
	}
	return sw.err
}

// PackShard writes every row of src into a new shard file at path, one
// DefaultBlockRows block at a time. The writer is closed on every path,
// and on any error the partial file is removed, so a half-packed pool can
// never open as a shorter valid shard.
func PackShard(path string, src PoolSource) (err error) {
	w, err := CreateShard(path, src.Dim())
	if err != nil {
		return err
	}
	defer func() {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(path)
		}
	}()
	n := src.NumRows()
	block := mat.NewDense(min(DefaultBlockRows, n), src.Dim())
	for lo := 0; lo < n; lo += block.Rows {
		b := block.RowSlice(0, min(block.Rows, n-lo))
		if err := src.ReadRows(lo, lo+b.Rows, b); err != nil {
			return err
		}
		if err := w.AppendBlock(b); err != nil {
			return err
		}
	}
	return nil
}

// shardFile is one opened shard: its payload either memory-mapped (data)
// or read on demand through f.
type shardFile struct {
	path string
	rows int
	data []byte   // mmap'd payload (header included); nil on the pread path
	f    *os.File // retained for pread when data == nil (and for munmap bookkeeping)

	// pread fallback state: one scratch buffer, serialized — only used on
	// platforms without mmap support, where ReadRows loses its lock-free
	// concurrency but keeps the same semantics.
	mu      sync.Mutex
	scratch []byte
}

// ShardSource serves the concatenation of one or more shard files.
type ShardSource struct {
	d      int
	rows   int
	files  []*shardFile
	starts []int // global row index of each file's first row
}

// OpenShards opens and validates the given shard files, concatenating
// their rows in argument order. All shards must share one dimension.
func OpenShards(paths ...string) (*ShardSource, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("dataset: OpenShards needs at least one path")
	}
	src := &ShardSource{}
	for _, path := range paths {
		sf, d, err := openShardFile(path)
		if err != nil {
			src.Close()
			return nil, err
		}
		if src.files == nil {
			src.d = d
		} else if d != src.d {
			sf.close()
			src.Close()
			return nil, fmt.Errorf("dataset: shard %s has dimension %d, but %s has dimension %d — all shards of one pool must share a dimension",
				path, d, paths[0], src.d)
		}
		src.starts = append(src.starts, src.rows)
		src.files = append(src.files, sf)
		src.rows += sf.rows
	}
	return src, nil
}

func openShardFile(path string) (*shardFile, int, error) {
	f, err := os.Open(path)
	if err != nil {
		// The *PathError already names the file; the prefix says which
		// registration failed — a session creating over a misregistered
		// pool path sees exactly which shard is missing.
		return nil, 0, fmt.Errorf("dataset: open shard: %w", err)
	}
	var hdr [shardHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("dataset: shard %s: read %d-byte header: %w", path, shardHeaderSize, err)
	}
	if string(hdr[:8]) != shardMagic {
		f.Close()
		return nil, 0, fmt.Errorf("dataset: %s is not a shard file (magic %q, want %q — pack CSVs with firal -pack)", path, hdr[:8], shardMagic)
	}
	d := int(binary.LittleEndian.Uint32(hdr[8:12]))
	rows := int(binary.LittleEndian.Uint64(hdr[12:20]))
	// The payload size must fit an int64 before it is compared with the
	// file size: 2⁶¹ rows × 8 dims × 4 bytes wraps to 0.
	if d <= 0 || rows < 0 || int64(rows) > (math.MaxInt64-shardHeaderSize)/(4*int64(d)) {
		f.Close()
		return nil, 0, fmt.Errorf("dataset: shard %s: invalid header shape %d rows × %d dims", path, rows, d)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("dataset: shard %s: %w", path, err)
	}
	want := int64(shardHeaderSize) + int64(rows)*int64(d)*4
	if st.Size() < want {
		f.Close()
		return nil, 0, fmt.Errorf("dataset: shard %s: truncated: %d bytes on disk, want %d = %d-byte header + %d rows × %d dims × 4 bytes",
			path, st.Size(), want, shardHeaderSize, rows, d)
	}
	sf := &shardFile{path: path, rows: rows, f: f}
	if data, err := mmapFile(f, st.Size()); err == nil {
		sf.data = data
	}
	// On mmap failure keep the pread path; no error — the fallback is
	// exactly as correct, just slower.
	return sf, d, nil
}

func (sf *shardFile) close() {
	if sf.data != nil {
		munmapFile(sf.data)
		sf.data = nil
	}
	if sf.f != nil {
		sf.f.Close()
		sf.f = nil
	}
}

// NumRows returns the total row count across shards.
func (s *ShardSource) NumRows() int { return s.rows }

// Dim returns the feature dimension.
func (s *ShardSource) Dim() int { return s.d }

// Close unmaps and closes every shard file.
func (s *ShardSource) Close() error {
	for _, sf := range s.files {
		sf.close()
	}
	s.files = nil
	return nil
}

// ReadRows decodes rows [lo, hi) into dst, crossing shard boundaries as
// needed. The mmap path performs no allocation and is safe for concurrent
// callers with private destinations.
func (s *ShardSource) ReadRows(lo, hi int, dst *mat.Dense) error {
	if err := checkWindow(s, lo, hi, dst); err != nil {
		return err
	}
	// Find the file containing lo by linear scan: shard counts are tiny
	// and the sweep access pattern revisits the same file block to block.
	fi := 0
	for fi+1 < len(s.files) && s.starts[fi+1] <= lo {
		fi++
	}
	row := lo
	for row < hi {
		sf := s.files[fi]
		fileLo := row - s.starts[fi]
		fileHi := min(sf.rows, hi-s.starts[fi])
		if err := sf.decodeRows(fileLo, fileHi, s.d, dst, row-lo); err != nil {
			return fmt.Errorf("dataset: shard %s: %w", sf.path, err)
		}
		row += fileHi - fileLo
		fi++
	}
	return nil
}

// decodeRows converts the float32 payload rows [lo, hi) of this file into
// dst starting at dst row dstRow.
func (sf *shardFile) decodeRows(lo, hi, d int, dst *mat.Dense, dstRow int) (err error) {
	off := shardHeaderSize + lo*d*4
	n := (hi - lo) * d * 4
	raw := sf.data
	if raw != nil {
		// A file truncated after it was mapped turns the access of a page
		// past its new end into SIGBUS, which would kill the process;
		// SetPanicOnFault makes it a panic, and the recover this error.
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		defer func() {
			if e := recover(); e != nil {
				if _, fault := e.(interface{ Addr() uintptr }); !fault {
					panic(e)
				}
				err = fmt.Errorf("mapped read of rows [%d, %d) faulted (file shrunk after open?): %v", lo, hi, e)
			}
		}()
		raw = raw[off : off+n]
	} else {
		sf.mu.Lock()
		defer sf.mu.Unlock()
		if cap(sf.scratch) < n {
			sf.scratch = make([]byte, n)
		}
		raw = sf.scratch[:n]
		if _, err := sf.f.ReadAt(raw, int64(off)); err != nil {
			return err
		}
	}
	if dst.Stride == d {
		mat.WidenFloat32(dst.Data[dstRow*d:(dstRow+hi-lo)*d], raw)
	} else {
		for r := 0; r < hi-lo; r++ {
			mat.WidenFloat32(dst.Row(dstRow+r), raw[r*d*4:(r+1)*d*4])
		}
	}
	if sf.data != nil {
		// Within the page that holds a shrunk file's new end, a mapping
		// reads zeros instead of faulting; the file size, taken after the
		// decode, tells them apart.
		size, err := fileSize(sf.f)
		if err != nil {
			return err
		}
		if end := int64(off + n); size < end {
			return fmt.Errorf("mapped rows [%d, %d) end at byte %d, past the file's end at %d (file shrunk after open?)", lo, hi, end, size)
		}
	}
	return nil
}
