package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/mat"
	"repro/internal/server"
)

// service_rounds: firald in-process (server.New plus its Handler on a
// loopback listener) with DataDir on disk and the default Config. Two
// tenants run closed loops against it with identical inputs and seeds.
// One operation is one round, from POST /rounds to the selected indices;
// before it the client labels the previous picks from the oracle and, on
// every other round, appends 1% more rows to the pool.
const (
	serviceN       = 20_000
	serviceD       = 64
	serviceClasses = 3
	serviceBudget  = 7
	serviceIters   = 3 // fixed RELAX iterations per round
	serviceTenants = 2
	serviceSeedPer = 2 // labeled seed rows per class
	serviceAppend  = serviceN / 100
	pollEvery      = 10 * time.Millisecond
	// nominalRound sets how many rounds a tenant runs: --seconds divided
	// by it. Rounds grow slower as labels accumulate (CG needs more
	// iterations), so every run makes the same rounds rather than as many
	// as fit, which would make op_s.p50 depend on the machine's pace.
	nominalRound = 3 * time.Second
	// maxAppends bounds the append shards generated up front; a tenant
	// appends on every other round, so this allows 2·maxAppends rounds.
	maxAppends = 24
)

// serviceInputs are the generated shards and the oracle labels of every
// pool row, base and appended, in pool order.
type serviceInputs struct {
	base    string
	appends []string
	labels  []int
	seedX   [][]float64
	seedY   []int
}

func genService(h *harness) (*serviceInputs, error) {
	gen := newLabeledPool(h.seed, serviceD, serviceClasses)
	in := &serviceInputs{base: filepath.Join(h.dir, "base.shard")}
	write := func(path string, n int) error {
		return writeShard(path, n, serviceD, func(_ int, b *mat.Dense) {
			in.labels = append(in.labels, gen.draw(b)...)
		})
	}
	if err := write(in.base, serviceN); err != nil {
		return nil, err
	}
	for k := 0; k < maxAppends; k++ {
		path := filepath.Join(h.dir, fmt.Sprintf("append-%02d.shard", k))
		if err := write(path, serviceAppend); err != nil {
			return nil, err
		}
		in.appends = append(in.appends, path)
	}
	x := mat.NewDense(serviceSeedPer*serviceClasses*4, serviceD)
	y := gen.draw(x)
	perClass := map[int]int{}
	for i, yi := range y {
		if perClass[yi] < serviceSeedPer {
			perClass[yi]++
			in.seedX = append(in.seedX, append([]float64(nil), x.Row(i)...))
			in.seedY = append(in.seedY, yi)
		}
	}
	if len(in.seedY) != serviceSeedPer*serviceClasses {
		return nil, fmt.Errorf("seed set covers %d rows, want %d", len(in.seedY), serviceSeedPer*serviceClasses)
	}
	return in, nil
}

// daemon is one booted in-process firald.
type daemon struct {
	srv    *server.Server
	http   *http.Server
	base   string
	client *http.Client
	served chan error
}

func bootDaemon(dataDir string) (*daemon, error) {
	srv, err := server.New(server.Config{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String() + "/v1",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceTenants}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// close stops the listener, waits for the serve loop, then closes the
// server (which waits for its round goroutines).
func (d *daemon) close() {
	d.http.Shutdown(context.Background())
	<-d.served
	d.client.CloseIdleConnections()
	d.srv.Close()
}

// errRefused marks an HTTP 429: admission refused the round.
var errRefused = errors.New("refused by admission (429)")

// call sends one JSON request and decodes the JSON reply into out.
func (d *daemon) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return errRefused
	case resp.StatusCode >= 300:
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// tenant is one client with its session and its round history.
type tenant struct {
	d       *daemon
	in      *serviceInputs
	id      string
	rows    int
	appends int
	labeled []int   // pool rows labeled so far
	rounds  [][]int // selections, round by round
	tr      *tracer // nil for an untraced tenant
}

// roundStat is one round as the client saw it.
type roundStat struct {
	wall                                    float64 // the operation's wall seconds
	post, queue, train, sel, labels, append float64
	appended                                bool
	cgIters                                 int
}

func newTenant(d *daemon, in *serviceInputs, seed int64) (*tenant, error) {
	t := &tenant{d: d, in: in, rows: serviceN}
	var resp struct {
		ID string `json:"id"`
	}
	err := d.call("POST", "/sessions", map[string]any{
		"shards":            []string{in.base},
		"labeled":           map[string]any{"x": in.seedX, "y": in.seedY},
		"classes":           serviceClasses,
		"seed":              seed,
		"selector":          "approx-firal",
		"probes":            10,
		"fixed_relax_iters": serviceIters,
	}, &resp)
	if err != nil {
		return nil, fmt.Errorf("create session: %w", err)
	}
	t.id = resp.ID
	return t, nil
}

// span times f as a span under the tenant's current operation.
func (t *tenant) span(name string, parent int, f func() error) (float64, error) {
	id := t.tr.begin(name, parent)
	t0 := time.Now()
	err := f()
	t.tr.end(id)
	return time.Since(t0).Seconds(), err
}

// round runs one client round: label the previous picks, append rows on
// every other round, then the timed operation — start the round, poll
// its status every 10 ms, fetch the selection — and check the selection.
func (t *tenant) round(op int) (roundStat, error) {
	var st roundStat
	path := "/sessions/" + t.id
	root := t.tr.beginOp("op", op)
	defer t.tr.endOp(root)
	if prev := len(t.rounds); prev > 0 {
		picks := t.rounds[prev-1]
		labels := make([]server.IndexLabel, len(picks))
		for k, i := range picks {
			labels[k] = server.IndexLabel{Index: i, Label: t.in.labels[i]}
		}
		secs, err := t.span("server.labels", root, func() error {
			return t.d.call("POST", path+"/labels", map[string]any{"pool": labels}, nil)
		})
		if err != nil {
			return st, fmt.Errorf("label round %d picks: %w", prev, err)
		}
		st.labels = secs
		t.labeled = append(t.labeled, picks...)
		if prev%2 == 1 {
			if t.appends == len(t.in.appends) {
				return st, fmt.Errorf("append shards exhausted after %d appends", t.appends)
			}
			secs, err := t.span("server.append", root, func() error {
				return t.d.call("POST", path+"/pool", map[string]any{"shards": []string{t.in.appends[t.appends]}}, nil)
			})
			if err != nil {
				return st, fmt.Errorf("append rows: %w", err)
			}
			st.append, st.appended = secs, true
			t.appends++
			t.rows += serviceAppend
		}
	}

	t0 := time.Now()
	var started struct {
		Round  int    `json:"round"`
		Status string `json:"status"`
	}
	secs, err := t.span("server.post", root, func() error {
		return t.d.call("POST", path+"/rounds", map[string]int{"budget": serviceBudget}, &started)
	})
	if err != nil {
		return st, fmt.Errorf("start round: %w", err)
	}
	st.post = secs
	rpath := fmt.Sprintf("%s/rounds/%d", path, started.Round)
	queued := started.Status == server.RoundQueued
	var meta server.RoundMeta
	poll := t.tr.begin("server.poll", root)
	for {
		if err := t.d.call("GET", rpath, nil, &meta); err != nil {
			t.tr.end(poll)
			return st, fmt.Errorf("poll round: %w", err)
		}
		if queued && meta.Status != server.RoundQueued {
			queued = false
			st.queue = time.Since(t0).Seconds() - st.post
		}
		if meta.Status != server.RoundQueued && meta.Status != server.RoundRunning {
			break
		}
		time.Sleep(pollEvery)
	}
	t.tr.end(poll)
	if meta.Status != server.RoundDone {
		return st, fmt.Errorf("round %d ended %s: %s", started.Round, meta.Status, meta.Error)
	}
	var sel struct {
		Selected []int `json:"selected"`
	}
	if _, err := t.span("server.selected", root, func() error {
		return t.d.call("GET", rpath+"/selected", nil, &sel)
	}); err != nil {
		return st, fmt.Errorf("fetch selection: %w", err)
	}
	st.wall = time.Since(t0).Seconds()
	st.train, st.sel, st.cgIters = meta.TrainSeconds, meta.SelectSeconds, meta.CGIterations
	t.rounds = append(t.rounds, sel.Selected)
	return st, t.checkSelection(sel.Selected)
}

// checkSelection: b distinct in-range indices, none already labeled.
func (t *tenant) checkSelection(sel []int) error {
	if len(sel) != serviceBudget {
		return fmt.Errorf("round selected %d rows, want %d", len(sel), serviceBudget)
	}
	seen := map[int]bool{}
	for _, i := range t.labeled {
		seen[i] = true
	}
	for _, i := range sel {
		if i < 0 || i >= t.rows {
			return fmt.Errorf("selected row %d outside the pool [0, %d)", i, t.rows)
		}
		if seen[i] {
			return fmt.Errorf("selected row %d twice or after it was labeled", i)
		}
		seen[i] = true
	}
	return nil
}

func runService(h *harness) error {
	in, err := genService(h)
	if err != nil {
		return err
	}
	type state struct {
		d       *daemon
		tenants []*tenant
	}
	boots := 0
	s, err := setUp(h, setupRepeats, func() (state, error) {
		boots++
		d, err := bootDaemon(filepath.Join(h.dir, fmt.Sprintf("firald-%d", boots)))
		if err != nil {
			return state{}, err
		}
		st := state{d: d}
		for k := 0; k < serviceTenants; k++ {
			t, err := newTenant(d, in, h.seed)
			if err != nil {
				d.close()
				return state{}, err
			}
			st.tenants = append(st.tenants, t)
		}
		// The warm-up is each tenant's first round, run concurrently.
		if err := warmUp(st.tenants); err != nil {
			d.close()
			return state{}, fmt.Errorf("warm-up round: %w", err)
		}
		return st, nil
	}, func(st state) { st.d.close() })
	if err != nil {
		return err
	}
	defer s.d.close()
	log.Printf("warm-up round selected %v", s.tenants[0].rounds[0])
	if h.tr != nil {
		s.tenants[0].tr = h.tr // tenant 0 traced, tenant 1 untraced
	}

	// Closed loop per tenant.
	rounds := max(1, int(math.Round(h.seconds/nominalRound.Seconds())))
	var mu sync.Mutex
	stats := make([][]roundStat, serviceTenants)
	rejected := 0
	var wg sync.WaitGroup
	t0 := time.Now()
	for k, t := range s.tenants {
		wg.Add(1)
		go func(k int, t *tenant) {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				st, err := t.round(i)
				mu.Lock()
				h.attempted++
				if err != nil {
					h.failed++
					if errors.Is(err, errRefused) {
						rejected++
					}
					log.Printf("tenant %d round %d failed: %v", k, len(t.rounds), err)
				} else {
					stats[k] = append(stats[k], st)
					log.Printf("tenant %d round %d: %.3fs wall, select %.3fs, train %.3fs, %d CG iterations",
						k, len(t.rounds), st.wall, st.sel, st.train, st.cgIters)
				}
				mu.Unlock()
				if err != nil {
					return // the session's state is no longer known
				}
			}
		}(k, t)
	}
	wg.Wait()
	h.measured = time.Since(t0).Seconds()
	h.peakRSS = rssMiB("VmHWM")
	// Untraced, every tenant's rounds are samples (and ops_per_s counts
	// rounds across tenants); traced, only the untraced tenant's.
	for k, ss := range stats {
		if h.tr == nil || s.tenants[k].tr == nil {
			for _, st := range ss {
				h.record(st.wall)
			}
		}
	}
	log.Printf("op_s samples %v", fmtSecs(h.opSecs))

	// Identical inputs and seeds: the tenants agree round for round.
	a, b := s.tenants[0].rounds, s.tenants[1].rounds
	for r := 0; r < min(len(a), len(b)); r++ {
		if !slices.Equal(a[r], b[r]) {
			h.fail("round %d: tenant 0 selected %v, tenant 1 %v", r+1, a[r], b[r])
		}
	}
	if h.tr == nil {
		return nil
	}

	smp := samples{}
	var tracedSecs []float64
	for _, st := range stats[0] {
		tracedSecs = append(tracedSecs, st.wall)
		smp.add("server.post_s", st.post)
		smp.add("server.queue_s", st.queue)
		smp.add("server.train_s", st.train)
		smp.add("server.select_s", st.sel)
		smp.add("server.overhead_s", st.wall-st.train-st.sel)
		smp.add("server.labels_s", st.labels)
		if st.appended {
			smp.add("server.append_s", st.append)
		}
		smp.add("krylov.cg_iterations", float64(st.cgIters))
		smp.add("trace.coverage", (st.post+st.queue+st.train+st.sel)/st.wall)
	}
	smp.add("server.rejected", float64(rejected))
	smp.add("mat.gemm_gflops", calibrate().Flops/1e9)
	h.finishLayers(smp, tracedSecs)
	return nil
}

// warmUp runs every tenant's first round concurrently.
func warmUp(ts []*tenant) error {
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for k, t := range ts {
		wg.Add(1)
		go func(k int, t *tenant) {
			defer wg.Done()
			_, errs[k] = t.round(0)
		}(k, t)
	}
	wg.Wait()
	return errors.Join(errs...)
}
