package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/firal"
)

// A session's RELAX state file persists the newest checkpoint of its
// latest Approx- or Dist-FIRAL round, tagged with that round's number. It
// serves two readers: an interrupted round resumes from its own state
// instead of recomputing, and the next round warm-starts mirror descent
// from a finished (done) solve, reprojecting the weights onto the grown
// simplex if the pool was appended to in between. The format is fixed
// little-endian binary — float64 bits are written raw, so a resumed
// mirror-descent trajectory is bit-for-bit the uninterrupted one (a text
// codec that rounds weights would diverge):
//
//	offset 0   8 bytes  magic "FIRALCK1"
//	offset 8   uint32   round number the state belongs to
//	offset 12  uint32   completed mirror-descent iterations
//	offset 16  uint8    done flag (mirror descent finished; ROUND remained)
//	offset 17  uint64   cumulative CG iterations
//	offset 25  uint64   nz, then nz float64 simplex weights
//	...        uint64   nf, then nf float64 objective history
//
// Writes go through writeFileAtomic, so a crash mid-write leaves the
// previous checkpoint intact rather than a torn file.

const ckptMagic = "FIRALCK1"

// statePath is the location of a session's RELAX state file.
func statePath(sessionDir string) string {
	return filepath.Join(sessionDir, "warm.ckpt")
}

// writeFileAtomic replaces path with the bytes fill writes: it writes a
// temp file beside path, flushes and fsyncs it, closes it and renames it
// over path. On any error the temp file is removed and path is left as
// it was.
func writeFileAtomic(path string, fill func(*bufio.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	err = fill(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// writeCheckpoint atomically persists the RELAX state of round `round`.
func writeCheckpoint(path string, round int, ck *firal.RelaxCheckpoint) error {
	return writeFileAtomic(path, func(w *bufio.Writer) error {
		// Write errors stick in w and surface at its Flush.
		var scratch [8]byte
		put32 := func(v uint32) {
			binary.LittleEndian.PutUint32(scratch[:4], v)
			w.Write(scratch[:4])
		}
		put64 := func(v uint64) {
			binary.LittleEndian.PutUint64(scratch[:], v)
			w.Write(scratch[:])
		}
		putFloats := func(xs []float64) {
			put64(uint64(len(xs)))
			for _, x := range xs {
				put64(math.Float64bits(x))
			}
		}
		w.WriteString(ckptMagic)
		put32(uint32(round))
		put32(uint32(ck.Iteration))
		if ck.Done {
			w.WriteByte(1)
		} else {
			w.WriteByte(0)
		}
		put64(uint64(ck.CGIterations))
		putFloats(ck.Z)
		putFloats(ck.FHist)
		return nil
	})
}

// readCheckpoint loads a checkpoint, reporting the round it belongs to.
// A missing file returns os.ErrNotExist (via os.ReadFile).
func readCheckpoint(path string) (round int, ck *firal.RelaxCheckpoint, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if len(raw) < len(ckptMagic)+4+4+1+8 || string(raw[:8]) != ckptMagic {
		return 0, nil, fmt.Errorf("server: %s is not a round checkpoint", path)
	}
	off := 8
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(raw[off:])
		off += 4
		return v
	}
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(raw[off:])
		off += 8
		return v
	}
	round = int(u32())
	ck = &firal.RelaxCheckpoint{Iteration: int(u32())}
	ck.Done = raw[off] != 0
	off++
	ck.CGIterations = int(u64())
	floats := func(what string) ([]float64, error) {
		if off+8 > len(raw) {
			return nil, fmt.Errorf("server: checkpoint %s: truncated before %s length", path, what)
		}
		n := int(u64())
		// Compare counts, not byte offsets: 8*n wraps for n ≥ 2⁶⁰.
		if n < 0 || n > (len(raw)-off)/8 {
			return nil, fmt.Errorf("server: checkpoint %s: truncated %s (want %d floats, %d bytes left)",
				path, what, n, len(raw)-off)
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(u64())
		}
		return xs, nil
	}
	if ck.Z, err = floats("weights"); err != nil {
		return 0, nil, err
	}
	if ck.FHist, err = floats("objective history"); err != nil {
		return 0, nil, err
	}
	return round, ck, nil
}
