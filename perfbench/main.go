// Command perfbench is the repository benchmark. It runs one workload
// from a seed, checks every output, and prints one JSON result line:
//
//	perfbench --workload stream_select_1e6 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (op_s.p50,
// setup_s, idle_rss_mib, peak_rss_mib, ok_frac, ops_per_s); with --trace 1
// it carries the per-layer metrics of a traced run, measured from outside
// the program by timing calls into each package's public functions and
// reading their public result fields. run.sh builds and runs it; see
// README.md for the workloads and interactions.json for which layer metric
// should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/parallel"
)

// workload is one benchmark scenario. run generates the inputs from the
// seed, then drives the harness: set-up, warm-up, timed operations.
type workload struct {
	name string
	// workers is the parallel worker count fixed for the whole run, so
	// that no more compute threads run than cores.
	workers func(procs int) int
	run     func(h *harness) error
}

var workloads = []workload{
	{"stream_select_1e6", func(p int) int { return p }, runStream},
	{"resident_select_c10", func(p int) int { return p }, runResident},
	{"service_rounds", func(int) int { return 1 }, runService},
	{"dist_tcp_select_p2", func(int) int { return 1 }, runDist},
}

func main() { os.Exit(run()) }

// run is main with deferred clean-up: it returns the exit code.
func run() int {
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	log.SetPrefix("perfbench: ")
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer variant")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for generated inputs and traces")
	)
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i, x := range workloads {
			names[i] = x.name
		}
		log.Printf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		log.Printf("--trace must be 0 or 1, got %d", *trace)
		return 2
	}

	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	workers := w.workers(procs)
	parallel.SetMaxWorkers(workers)

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		log.Print(err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, fmt.Sprintf("%s-%d-", w.name, *seed))
	if err != nil {
		log.Print(err)
		return 1
	}
	defer os.RemoveAll(dir)

	h := &harness{
		seed:    *seed,
		seconds: *seconds,
		dir:     dir,
		layers:  map[string]float64{},
	}
	if *trace == 1 {
		h.tr = newTracer()
	}
	log.Printf("%s seed=%d GOMAXPROCS=%d workers=%d trace=%d", w.name, *seed, procs, workers, *trace)
	if err := w.run(h); err != nil {
		log.Print(err)
		return 1
	}
	if h.tr != nil {
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		if err := h.tr.write(path); err != nil {
			log.Print(err)
			return 1
		}
		log.Printf("trace: %d spans in %s; self time per layer: %s", len(h.tr.spans), path, formatSelf(h.tr.selfByLayer()))
	}
	res := h.result()
	out, err := json.Marshal(res)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// harness holds what every workload reports: set-up times, operation
// times, failures, and (traced runs) the per-layer metrics.
type harness struct {
	seed    int64
	seconds float64
	dir     string
	tr      *tracer // nil in untraced runs

	setupSecs []float64
	idleRSS   float64
	peakRSS   float64   // at the end of the timed loop, before any post-run check
	opSecs    []float64 // wall seconds of the operations that passed their checks
	attempted int
	failed    int
	measured  float64 // wall seconds of the timed loop
	problems  []string

	layers map[string]float64
}

// setupRepeats is how many times a workload sets up from scratch; the
// median is reported so one slow set-up does not decide setup_s.
const setupRepeats = 3

// fail records a failed check; the run then reports correct=false.
func (h *harness) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	log.Printf("CHECK FAILED: %s", msg)
	h.problems = append(h.problems, msg)
}

// setUp times fn — one complete set-up including its warm-up operation —
// repeats times, keeping the last set-up's state for the timed loop and
// closing the earlier ones. It is called once the inputs are generated:
// the generator's garbage is collected and returned to the OS and the
// peak RSS is reset, so peak_rss_mib covers set-up and the timed
// operations only (loop reads it before any post-run check).
// Idle RSS is read after the last set-up, once its garbage is collected
// and returned, so it is the live footprint.
func setUp[S any](h *harness, repeats int, fn func() (S, error), closeFn func(S)) (S, error) {
	var st S
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return st, fmt.Errorf("reset peak RSS: %w", err)
	}
	for i := 0; i < repeats; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := fn()
		if err != nil {
			return st, err
		}
		h.setupSecs = append(h.setupSecs, time.Since(t0).Seconds())
		if i < repeats-1 {
			closeFn(s)
		}
		st = s
	}
	debug.FreeOSMemory()
	h.idleRSS = rssMiB("VmRSS")
	log.Printf("setup_s samples %v", fmtSecs(h.setupSecs))
	return st, nil
}

// loop runs op(1), op(2), ... for the measured time: it runs at least
// minOps operations and starts another only if, at the pace so far, it
// ends within the measured time, so a run's length does not hinge on
// whether the last operation started just before the deadline. op
// returns an error for an operation that failed, was refused, or failed
// its output check; a successful operation records its own time
// (it knows where the operation starts and ends).
func (h *harness) loop(minOps int, op func(i int) error) {
	t0 := time.Now()
	for i := 1; ; i++ {
		if el := time.Since(t0).Seconds(); i > minOps && el*float64(i)/float64(i-1) > h.seconds {
			break
		}
		runtime.GC() // the previous operation's garbage is not this one's cost
		h.attempted++
		if err := op(i); err != nil {
			h.failed++
			log.Printf("op %d failed: %v", i, err)
		}
	}
	h.measured = time.Since(t0).Seconds()
	h.peakRSS = rssMiB("VmHWM")
	log.Printf("op_s samples %v", fmtSecs(h.opSecs))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (h *harness) result() result {
	r := result{
		Correct:   len(h.problems) == 0 && h.failed == 0 && h.attempted > 0,
		Attempted: h.attempted,
		Failed:    h.failed,
		Metrics:   map[string]metric{},
	}
	if h.tr != nil {
		for name, v := range h.layers {
			r.Metrics[name] = metric{v, layerUnit(name)}
		}
		return r
	}
	okFrac := 0.0
	if h.attempted > 0 {
		okFrac = float64(h.attempted-h.failed) / float64(h.attempted)
	}
	opsPerS := 0.0
	if h.measured > 0 {
		opsPerS = float64(len(h.opSecs)) / h.measured
	}
	r.Metrics["op_s.p50"] = metric{median(h.opSecs), "s"}
	r.Metrics["setup_s"] = metric{median(h.setupSecs), "s"}
	r.Metrics["idle_rss_mib"] = metric{h.idleRSS, "MiB"}
	r.Metrics["peak_rss_mib"] = metric{h.peakRSS, "MiB"}
	r.Metrics["ok_frac"] = metric{okFrac, "frac"}
	r.Metrics["ops_per_s"] = metric{opsPerS, "1/s"}
	log.Printf("%d ops attempted, %d failed, op_s.p50 over %d samples", h.attempted, h.failed, len(h.opSecs))
	return r
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "gflops"):
		return "GFLOP/s"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "coverage"), strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasSuffix(name, "bytes"), strings.HasSuffix(name, "bytes_per_op"):
		return "bytes"
	case strings.HasSuffix(name, "flops_per_op"):
		return "flop"
	case strings.HasSuffix(name, "flop_per_byte"):
		return "flop/byte"
	}
	return "count"
}

// median returns the median, or 0 for no samples (a run without samples
// has failed and reports correct=false).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// rssMiB reads one memory line (VmRSS, VmHWM) of /proc/self/status.
func rssMiB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		log.Fatalf("read RSS: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				log.Fatalf("parse %s: %v", field, err)
			}
			return kb / 1024
		}
	}
	log.Fatalf("no %s in /proc/self/status", field)
	return 0
}

func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// record appends a passed operation's wall seconds.
func (h *harness) record(wall float64) {
	h.opSecs = append(h.opSecs, wall)
}
