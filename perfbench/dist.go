package main

import (
	"context"
	"fmt"
	"log"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/distfiral"
	"repro/internal/hessian"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/timing"
)

// dist_tcp_select_p2: one distfiral.Select over two ranks that run as
// goroutines of this process and talk over loopback TCP, each rank
// streaming its half of a float32 shard holding the resident_select_c10
// problem. One worker per rank; a cancellable context, as cmd/firal
// uses, so the solver runs its per-iteration stop-flag broadcast.
const distRanks = 2

// distWorld is one bootstrapped two-rank group with its shards.
type distWorld struct {
	src       dataset.PoolSource
	comms     []*mpi.Comm
	timers    []*transportTimer // traced only
	shards    []*distfiral.Shard
	prefetch  []*dataset.PrefetchSource
	counting  []*dataset.CountingSource
	decode    []*decodeTimer // traced only
	stall     []*stallTimer  // traced only
	bootstrap time.Duration
}

func (w *distWorld) close() {
	for _, c := range w.comms {
		c.Transport().Close()
	}
	for _, pf := range w.prefetch {
		pf.Close()
	}
	w.src.Close()
}

// rankOut is one rank's share of an operation.
type rankOut struct {
	sel          []int
	relax, round *timing.Phases
	cgIters      int
	stats        mpi.Stats
	err          error
}

// distOp is one operation's outcome, rank by rank.
type distOp struct {
	ranks []rankOut
	io    []ioCounts // each rank's dataset counts
}

// sameAs compares two operations: the selection and every exact count
// (block reads and rows decoded, prefetch requests, messages, bytes,
// collectives) rank by rank.
func (o distOp) sameAs(w distOp) error {
	for r := range o.ranks {
		if !slices.Equal(o.ranks[r].sel, w.ranks[0].sel) {
			return fmt.Errorf("rank %d selected %v, warm-up %v", r, o.ranks[r].sel, w.ranks[0].sel)
		}
		if o.ranks[r].stats != w.ranks[r].stats {
			return fmt.Errorf("rank %d traffic %+v differs from the warm-up's %+v", r, o.ranks[r].stats, w.ranks[r].stats)
		}
		if o.io[r] != w.io[r] {
			return fmt.Errorf("rank %d dataset counts %+v differ from the warm-up's %+v", r, o.io[r], w.io[r])
		}
	}
	return nil
}

func runDist(h *harness) error {
	in := genClassProblem(h.seed, residentN, residentLabeled, residentD, residentC)
	path := filepath.Join(h.dir, "pool.shard")
	if err := writeShard(path, residentN, residentD, func(lo int, b *mat.Dense) {
		copy(b.Data, in.x.Data[lo*residentD:(lo+b.Rows)*residentD])
	}); err != nil {
		return err
	}
	relax := residentRelax(h.seed)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// open bootstraps a TCP group and cuts the shards as
	// distfiral.MakeStreamShard does, with a CountingSource below each
	// rank's prefetcher; traced, with timing wrappers around the
	// prefetch layer and the transport too.
	open := func(tr *tracer) (*distWorld, error) {
		src, err := dataset.OpenShards(path)
		if err != nil {
			return nil, err
		}
		w := &distWorld{src: src}
		t0 := time.Now()
		ts, err := bootstrapTCP(ctx)
		if err != nil {
			src.Close()
			return nil, err
		}
		w.bootstrap = time.Since(t0)
		for _, t := range ts {
			if tr != nil {
				tt := &transportTimer{Transport: t, tr: tr}
				w.timers = append(w.timers, tt)
				t = tt
			}
			w.comms = append(w.comms, mpi.NewComm(t))
		}
		for r := range ts {
			lo, hi := mpi.Partition(residentN, distRanks, r)
			counting := dataset.NewCountingSource(dataset.Subrange(src, lo, hi))
			var below dataset.PoolSource = counting
			if tr != nil {
				dec := &decodeTimer{src: counting, tr: tr}
				w.decode = append(w.decode, dec)
				below = dec
			}
			pf, ok := dataset.WithPrefetch(nil, below, 0).(*dataset.PrefetchSource)
			if !ok {
				w.close()
				return nil, fmt.Errorf("rank %d pool is not prefetched", r)
			}
			w.counting = append(w.counting, counting)
			w.prefetch = append(w.prefetch, pf)
			var above dataset.PoolSource = pf
			if tr != nil {
				stall, err := newStallTimer(pf, tr)
				if err != nil {
					w.close()
					return nil, err
				}
				w.stall = append(w.stall, stall)
				above = stall
			}
			w.shards = append(w.shards, &distfiral.Shard{
				Labeled:    in.labeled,
				PoolLocal:  hessian.NewStream(above, in.h.RowSlice(lo, hi), 0),
				PoolOffset: lo,
				PoolTotal:  residentN,
			})
		}
		return w, nil
	}

	// run is one operation: every rank runs Select concurrently.
	run := func(w *distWorld, tr *tracer, op int) distOp {
		root := tr.beginOp("op", op)
		defer tr.endOp(root)
		out := distOp{ranks: make([]rankOut, distRanks), io: make([]ioCounts, distRanks)}
		io0 := make([]ioCounts, distRanks)
		for r, pf := range w.prefetch {
			io0[r] = countsOf(w.counting[r], pf)
		}
		var wg sync.WaitGroup
		for r := range w.comms {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c := w.comms[r]
				before := c.Stats()
				id := tr.begin(fmt.Sprintf("distfiral.select.rank%d", r), root)
				sel, rr, rd, err := distfiral.Select(ctx, c, w.shards[r], residentBudget, 0, relax)
				tr.end(id)
				o := rankOut{sel: sel, err: err}
				after := c.Stats()
				o.stats = mpi.Stats{
					SentMessages: after.SentMessages - before.SentMessages,
					SentBytes:    after.SentBytes - before.SentBytes,
					Collectives:  after.Collectives - before.Collectives,
				}
				if err == nil {
					o.relax, o.round, o.cgIters = rr.Timings, rd.Timings, rr.CGIterations
				}
				out.ranks[r] = o
			}(r)
		}
		wg.Wait()
		for r, pf := range w.prefetch {
			out.io[r] = countsOf(w.counting[r], pf).minus(io0[r])
		}
		return out
	}
	opErr := func(o distOp) error {
		for r, ro := range o.ranks {
			if ro.err != nil {
				return fmt.Errorf("rank %d: %w", r, ro.err)
			}
		}
		return nil
	}

	type state struct {
		w    *distWorld
		warm distOp
	}
	s, err := setUp(h, setupRepeats, func() (state, error) {
		w, err := open(nil)
		if err != nil {
			return state{}, err
		}
		warm := run(w, nil, 0)
		if err := opErr(warm); err != nil {
			w.close()
			return state{}, fmt.Errorf("warm-up: %w", err)
		}
		return state{w, warm}, nil
	}, func(s state) { s.w.close() })
	if err != nil {
		return err
	}
	defer s.w.close()
	log.Printf("warm-up selected %v, rank 0 traffic %+v", s.warm.ranks[0].sel, s.warm.ranks[0].stats)

	untracedOp := func() error {
		t0 := time.Now()
		got := run(s.w, nil, 0)
		wall := time.Since(t0).Seconds()
		if err := opErr(got); err != nil {
			return err
		}
		if err := got.sameAs(s.warm); err != nil {
			return err
		}
		h.record(wall)
		return nil
	}
	if h.tr == nil {
		h.loop(1, func(int) error { return untracedOp() })
		// The TCP transport must be transparent: the same Select over the
		// in-process mailbox world selects the same points.
		local := mpi.NewLocalWorld(distRanks)
		sels := make([][]int, distRanks)
		errs := make([]error, distRanks)
		var wg sync.WaitGroup
		for r := range local {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				sh := distfiral.MakeStreamShard(in.labeled, s.w.src, in.h, 0, distRanks, r)
				defer sh.PoolLocal.(*hessian.Stream).Source().Close()
				sels[r], _, _, errs[r] = distfiral.Select(ctx, mpi.NewComm(local[r]), sh, residentBudget, 0, relax)
			}(r)
		}
		wg.Wait()
		for r := range local {
			switch {
			case errs[r] != nil:
				h.fail("mailbox-world Select, rank %d: %v", r, errs[r])
			case !slices.Equal(sels[r], s.warm.ranks[0].sel):
				h.fail("mailbox-world rank %d selected %v, TCP warm-up %v", r, sels[r], s.warm.ranks[0].sel)
			}
		}
		return nil
	}

	traced, err := open(h.tr)
	if err != nil {
		return err
	}
	defer traced.close()
	warm := run(traced, h.tr, 0)
	if err := opErr(warm); err != nil {
		return fmt.Errorf("traced warm-up: %w", err)
	}
	if err := warm.sameAs(s.warm); err != nil {
		return fmt.Errorf("traced warm-up: %w", err)
	}
	m := calibrate()
	smp := samples{}
	smp.add("mat.gemm_gflops", m.Flops/1e9)
	smp.add("mpi.bootstrap_s", traced.bootstrap.Seconds())
	var tracedSecs []float64
	h.loop(2, func(i int) error {
		if i%2 == 1 {
			return untracedOp()
		}
		snap := snapDist(traced)
		t0 := time.Now()
		got := run(traced, h.tr, i)
		wall := time.Since(t0).Seconds()
		if err := opErr(got); err != nil {
			return err
		}
		// Transparency: tracing changes neither the selection nor any
		// exact count.
		if err := got.sameAs(s.warm); err != nil {
			return fmt.Errorf("traced operation: %w", err)
		}
		tracedSecs = append(tracedSecs, wall)
		decode, wait, send, recv, wait0 := snapDist(traced).delta(snap)
		var io ioCounts
		for _, c := range got.io {
			io.reads, io.rows, io.hits, io.misses = io.reads+c.reads, io.rows+c.rows, io.hits+c.hits, io.misses+c.misses
		}
		r0 := got.ranks[0]
		var sent mpi.Stats
		var relaxComm, roundComm float64
		for _, ro := range got.ranks {
			sent.SentBytes += ro.stats.SentBytes
			sent.SentMessages += ro.stats.SentMessages
			relaxComm = max(relaxComm, ro.relax.Seconds("comm"))
			roundComm = max(roundComm, ro.round.Seconds("comm"))
		}
		smp.add("mpi.sent_bytes", float64(sent.SentBytes))
		smp.add("mpi.sent_messages", float64(sent.SentMessages))
		smp.add("mpi.collectives", float64(r0.stats.Collectives))
		smp.add("mpi.send_s", send)
		smp.add("mpi.recv_wait_s", recv)
		smp.add("distfiral.relax.comm_s", relaxComm)
		smp.add("distfiral.round.comm_s", roundComm)
		smp.add("dataset.read_calls", float64(io.reads))
		smp.add("dataset.rows_read", float64(io.rows))
		smp.add("dataset.decode_sweeps", float64(io.rows)/residentN)
		smp.add("dataset.decode_s", decode)
		smp.add("dataset.wait_s", wait)
		smp.add("dataset.prefetch_hit_ratio", float64(io.hits)/float64(io.hits+io.misses))
		smp.add("krylov.cg_iterations", float64(r0.cgIters))
		addPhases(smp, r0.relax, r0.round)
		q := residentShape(r0.cgIters, distRanks, 4)
		addModel(smp, m, q, r0.relax, r0.round, wait0)
		smp.add("trace.coverage", phaseSum(r0.relax, r0.round).Seconds()/wall)
		return nil
	})
	h.finishLayers(smp, tracedSecs)
	return nil
}

// distSnap holds the traced world's cumulative timers, rank by rank.
type distSnap struct {
	decode, wait, send, recv []float64
}

func snapDist(w *distWorld) distSnap {
	s := distSnap{}
	for r := range w.comms {
		s.decode = append(s.decode, float64(w.decode[r].busy.Load())/1e9)
		s.wait = append(s.wait, float64(w.stall[r].wait.Load())/1e9)
		s.send = append(s.send, float64(w.timers[r].send.Load())/1e9)
		s.recv = append(s.recv, float64(w.timers[r].recv.Load())/1e9)
	}
	return s
}

// delta returns, per quantity, the change since o summed over ranks, or
// for send and receive waits the slowest rank's; wait0 is rank 0's stall.
func (s distSnap) delta(o distSnap) (decode, wait, send, recv, wait0 float64) {
	for r := range s.decode {
		decode += s.decode[r] - o.decode[r]
		wait += s.wait[r] - o.wait[r]
		send = max(send, s.send[r]-o.send[r])
		recv = max(recv, s.recv[r]-o.recv[r])
	}
	return decode, wait, send, recv, s.wait[0] - o.wait[0]
}

// bootstrapTCP forms a two-rank TCP group on loopback: rank 0 listens on
// an ephemeral port and accepts while rank 1 dials it.
func bootstrapTCP(ctx context.Context) ([]mpi.Transport, error) {
	rz, err := mpi.ListenTCP("127.0.0.1:0", distRanks)
	if err != nil {
		return nil, err
	}
	defer rz.Close()
	ts := make([]mpi.Transport, distRanks)
	errs := make([]error, distRanks)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ts[0], errs[0] = rz.Accept(ctx)
	}()
	ts[1], errs[1] = mpi.DialTCP(ctx, rz.Addr(), 1, distRanks)
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			for _, t := range ts {
				if t != nil {
					t.Close()
				}
			}
			return nil, fmt.Errorf("TCP bootstrap, rank %d: %w", r, err)
		}
	}
	return ts, nil
}
