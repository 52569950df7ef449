package mpi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// frameReader is the reader side of a TCP peer over in: a bufio.Reader
// of the transport's size.
func frameReader(in []byte) (*bufio.Reader, *bytes.Reader) {
	src := bytes.NewReader(in)
	return bufio.NewReaderSize(src, 1<<16), src
}

// TestReadFrameTruncatedAllocatesLittle pins that readFrame allocates
// with the bytes that arrive, not with the count a header announces: a
// header announcing 2²⁴ elements (128 MiB) followed by the end of the
// stream gives io.ErrUnexpectedEOF with less than 1 MiB allocated.
func TestReadFrameTruncatedAllocatesLittle(t *testing.T) {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], 7)
	binary.LittleEndian.PutUint64(hdr[8:], 1<<24)
	br, _ := frameReader(hdr[:])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(br)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a header announcing 2^24 elements allocated %d bytes before the payload arrived", got)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReadFrameLargeFrame reads a frame larger than the first data
// allocation and the reader's buffer, so data grows and the payload
// arrives in many chunks, and one that ends inside a chunk.
func TestReadFrameLargeFrame(t *testing.T) {
	data := make([]float64, 3*frameFirstElems+5)
	for i := range data {
		data[i] = float64(i) - 0.5
	}
	frame := encodeFrame(-3, data)
	br, _ := frameReader(frame)
	tag, got, err := readFrame(br)
	if err != nil || tag != -3 || len(got) != len(data) {
		t.Fatalf("tag %d, %d elements, err %v; want -3, %d, nil", tag, len(got), err, len(data))
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("element %d = %g, want %g", i, got[i], data[i])
		}
	}
	br, _ = frameReader(frame[:len(frame)-3])
	if _, _, err := readFrame(br); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("frame cut 3 bytes short: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// FuzzTCPFrame reads frames from arbitrary bytes until readFrame errs.
// It must not panic; every frame it accepts must re-encode to exactly
// the bytes it consumed; and it ends cleanly (io.EOF) only on a frame
// boundary, otherwise with io.ErrUnexpectedEOF or, on a header whose
// count is out of range, a count error.
func FuzzTCPFrame(f *testing.F) {
	f.Add(encodeFrame(0, nil))
	f.Add(encodeFrame(5, []float64{1.5}))
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	snan := math.Float64frombits(0x7ff0_0000_0000_0001)
	f.Add(encodeFrame(-1, []float64{nan, snan, math.Inf(-1), math.Copysign(0, -1)}))
	f.Add(append(encodeFrame(1, []float64{2}), encodeFrame(2, []float64{3, 4})...))
	f.Add(encodeFrame(9, []float64{1, 2})[:10])
	huge := encodeFrame(3, nil)
	binary.LittleEndian.PutUint64(huge[8:], maxFrameElems+1)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, in []byte) {
		br, src := frameReader(in)
		consumed := func() int { return len(in) - src.Len() - br.Buffered() }
		start := 0
		for {
			tag, data, err := readFrame(br)
			if err != nil {
				switch {
				case errors.Is(err, io.EOF):
					if start != len(in) {
						t.Fatalf("clean EOF at byte %d of %d", start, len(in))
					}
				case errors.Is(err, io.ErrUnexpectedEOF):
				case len(in)-start < 16:
					t.Fatalf("error %v on a %d-byte header", err, len(in)-start)
				default:
					if n := int64(binary.LittleEndian.Uint64(in[start+8:])); n >= 0 && n <= maxFrameElems {
						t.Fatalf("frame at byte %d announcing %d elements: %v", start, n, err)
					}
				}
				return
			}
			end := consumed()
			if got := encodeFrame(tag, data); !bytes.Equal(got, in[start:end]) {
				t.Fatalf("frame at byte %d re-encodes to %x, consumed %x", start, got, in[start:end])
			}
			start = end
		}
	})
}
