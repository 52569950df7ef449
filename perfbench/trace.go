package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/mpi"
)

// span is one timed call across a layer boundary. Spans are kept in
// memory and written out when the run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // id of the causing span; 0 = none
	Op     int    `json:"op"`     // operation id shared by its spans
}

// tracer records spans. A nil *tracer records nothing, so untraced code
// paths call the same methods at the cost of one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// cur is the span that asynchronous and per-call spans (decode,
	// stall, send, receive) hang under: the running operation's span.
	cur atomic.Int64
	op  atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (≥ 1; 0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: int(t.op.Load())})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a finished span [start, start+d) under the current span.
func (t *tracer) record(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: int(t.cur.Load()), Op: int(t.op.Load())})
	t.mu.Unlock()
}

// beginOp opens operation op's root span and makes it the parent of the
// per-call spans recorded until endOp.
func (t *tracer) beginOp(name string, op int) int {
	if t == nil {
		return 0
	}
	t.op.Store(int64(op))
	id := t.begin(name, 0)
	t.cur.Store(int64(id))
	return id
}

func (t *tracer) endOp(id int) {
	if t == nil {
		return
	}
	t.end(id)
	t.cur.Store(0)
}

// selfByLayer returns, per layer (the span name up to its first dot),
// the summed self time of its spans: each span's duration minus the part
// of it that its child spans cover.
func (t *tracer) selfByLayer() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent > 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - covered(children[i+1], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi).
func covered(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a >= b {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

func formatSelf(m map[string]time.Duration) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%.3fs", n, m[n].Seconds())
	}
	return strings.Join(parts, " ")
}

// write saves the spans and the per-layer self times as JSON.
func (t *tracer) write(path string) error {
	self := map[string]float64{}
	for layer, d := range t.selfByLayer() {
		self[layer] = d.Seconds()
	}
	t.mu.Lock()
	data, err := json.Marshal(map[string]any{"self_s": self, "spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// decodeTimer sits below the prefetch layer (where a CountingSource
// sits in the repository's own stream bench) and times every ReadRows:
// decode busy time, whichever goroutine pays it. It forwards Generation
// and nothing else, like dataset.CountingSource.
type decodeTimer struct {
	src  dataset.PoolSource
	tr   *tracer
	busy atomic.Int64
}

func (s *decodeTimer) NumRows() int { return s.src.NumRows() }
func (s *decodeTimer) Dim() int     { return s.src.Dim() }
func (s *decodeTimer) Close() error { return s.src.Close() }

func (s *decodeTimer) Generation() int64 {
	if g, ok := s.src.(interface{ Generation() int64 }); ok {
		return g.Generation()
	}
	return 0
}

func (s *decodeTimer) ReadRows(lo, hi int, dst *mat.Dense) error {
	t0 := time.Now()
	err := s.src.ReadRows(lo, hi, dst)
	d := time.Since(t0)
	s.busy.Add(int64(d))
	s.tr.record("dataset.decode", t0, d)
	return err
}

// stallTimer sits above the prefetch layer and times what the consumer
// waits for a block: LendBlock and ReadRows. It forwards exactly
// BlockLender and Generation, so hessian.Stream takes the same zero-copy
// path it takes without it.
type stallTimer struct {
	src  dataset.PoolSource
	lend dataset.BlockLender
	tr   *tracer
	wait atomic.Int64
}

func newStallTimer(src dataset.PoolSource, tr *tracer) (*stallTimer, error) {
	lend, ok := src.(dataset.BlockLender)
	if !ok {
		return nil, fmt.Errorf("stall timer: %T lends no blocks; expected a prefetching source", src)
	}
	return &stallTimer{src: src, lend: lend, tr: tr}, nil
}

func (s *stallTimer) NumRows() int { return s.src.NumRows() }
func (s *stallTimer) Dim() int     { return s.src.Dim() }
func (s *stallTimer) Close() error { return s.src.Close() }

func (s *stallTimer) Generation() int64 {
	if g, ok := s.src.(interface{ Generation() int64 }); ok {
		return g.Generation()
	}
	return 0
}

func (s *stallTimer) observe(t0 time.Time) {
	d := time.Since(t0)
	s.wait.Add(int64(d))
	s.tr.record("dataset.wait", t0, d)
}

func (s *stallTimer) ReadRows(lo, hi int, dst *mat.Dense) error {
	t0 := time.Now()
	err := s.src.ReadRows(lo, hi, dst)
	s.observe(t0)
	return err
}

func (s *stallTimer) LendBlock(lo, hi int) (*mat.Dense, error) {
	t0 := time.Now()
	b, err := s.lend.LendBlock(lo, hi)
	s.observe(t0)
	return b, err
}

func (s *stallTimer) ReturnBlock(b *mat.Dense) { s.lend.ReturnBlock(b) }

// transportTimer wraps one rank's mpi.Transport and times sends and
// receives (a receive's time is the wait for the peer's message).
type transportTimer struct {
	mpi.Transport
	tr         *tracer
	send, recv atomic.Int64
}

func (t *transportTimer) Send(dst, tag int, data []float64, deadline time.Time) error {
	t0 := time.Now()
	err := t.Transport.Send(dst, tag, data, deadline)
	d := time.Since(t0)
	t.send.Add(int64(d))
	t.tr.record("mpi.send", t0, d)
	return err
}

func (t *transportTimer) Recv(src, tag int, deadline time.Time) ([]float64, error) {
	t0 := time.Now()
	data, err := t.Transport.Recv(src, tag, deadline)
	d := time.Since(t0)
	t.recv.Add(int64(d))
	t.tr.record("mpi.recv", t0, d)
	return data, err
}
