// Package timing provides the phase timers behind the paper's wall-clock
// breakdowns (Figs. 5–7): each solver attributes elapsed time to named
// phases ("precond", "cg", "gradient", "eig", "objective", "comm",
// "other"), which the experiment harnesses print next to the theoretical
// peak-time estimates from internal/perfmodel.
package timing

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Phases accumulates elapsed time per named phase. It is not safe for
// concurrent use; distributed solvers keep one Phases per rank and merge.
type Phases struct {
	entries map[string]*phase
	order   []string
}

// phase is one named accumulator. Its stop closure is built once, when
// the phase is first seen, so the Start/stop pair on a warm Phases is
// allocation-free — Start sits inside the per-candidate ROUND loop and
// the RELAX mirror-descent iterations, which are pinned at 0 allocs/op.
type phase struct {
	d    time.Duration
	t0   time.Time
	stop func()
}

// New returns an empty phase accumulator.
func New() *Phases {
	return &Phases{entries: make(map[string]*phase)}
}

func (p *Phases) entry(name string) *phase {
	e := p.entries[name]
	if e == nil {
		e = &phase{}
		e.stop = func() { e.d += time.Since(e.t0) }
		p.entries[name] = e
		p.order = append(p.order, name)
	}
	return e
}

// Start begins timing a phase; call the returned stop function to
// accumulate. Typical use: defer p.Start("cg")(). Phases do not nest
// with themselves: a second Start of the same name before its stop
// restarts the clock. A nil *Phases times nothing.
func (p *Phases) Start(name string) func() {
	if p == nil {
		return nop
	}
	e := p.entry(name)
	e.t0 = time.Now()
	return e.stop
}

func nop() {}

// Add accumulates d into the named phase.
func (p *Phases) Add(name string, d time.Duration) {
	p.entry(name).d += d
}

// Get returns the accumulated duration of a phase (zero if unknown).
func (p *Phases) Get(name string) time.Duration {
	if e := p.entries[name]; e != nil {
		return e.d
	}
	return 0
}

// Seconds returns the accumulated duration of a phase in seconds.
func (p *Phases) Seconds(name string) float64 { return p.Get(name).Seconds() }

// Total returns the sum over all phases.
func (p *Phases) Total() time.Duration {
	var t time.Duration
	for _, e := range p.entries {
		t += e.d
	}
	return t
}

// Names returns phase names in first-recorded order.
func (p *Phases) Names() []string {
	return append([]string(nil), p.order...)
}

// Merge adds all phases of q into p.
func (p *Phases) Merge(q *Phases) {
	for _, name := range q.order {
		p.Add(name, q.Get(name))
	}
}

// String renders phases sorted by descending duration.
func (p *Phases) String() string {
	names := p.Names()
	sort.Slice(names, func(i, j int) bool {
		return p.Get(names[i]) > p.Get(names[j])
	})
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%.4fs", n, p.Get(n).Seconds())
	}
	return b.String()
}
