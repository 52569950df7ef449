package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/mat"
)

// Round statuses. A round is created queued, becomes running when the
// admission layer grants it a slot, and ends done, failed, or interrupted.
// Interrupted rounds (cancelled by shutdown or a crash) are resumable:
// server startup re-enqueues them from their checkpoint.
const (
	RoundQueued      = "queued"
	RoundRunning     = "running"
	RoundDone        = "done"
	RoundFailed      = "failed"
	RoundInterrupted = "interrupted"
)

// IndexLabel is one revealed pool label: the client looked at pool row
// Index (a global row index into the registered shards) and reports its
// class. The row's features are read back from the pool at train time, so
// the upload is O(1) per label regardless of dimension.
type IndexLabel struct {
	Index int `json:"index"`
	Label int `json:"label"`
}

// RoundMeta is the persisted record of one selection round.
type RoundMeta struct {
	Round  int    `json:"round"`
	Budget int    `json:"budget"`
	Status string `json:"status"`
	// Selected holds the chosen global pool row indices, in selection
	// order, once the round is done.
	Selected []int  `json:"selected,omitempty"`
	Error    string `json:"error,omitempty"`
	// Eta, RelaxIterations, CGIterations, SelectSeconds and TrainSeconds
	// mirror the library's per-round reporting.
	Eta             float64 `json:"eta,omitempty"`
	RelaxIterations int     `json:"relax_iterations,omitempty"`
	CGIterations    int     `json:"cg_iterations,omitempty"`
	SelectSeconds   float64 `json:"select_seconds,omitempty"`
	TrainSeconds    float64 `json:"train_seconds,omitempty"`
	// WorkersObserved is parallel.Workers() sampled inside the round's
	// scoped limit — what the solver actually saw, pinned by the
	// concurrency tests to verify AcquireLimit scoping.
	WorkersObserved int `json:"workers_observed,omitempty"`
}

// sessionMeta is the JSON state persisted per session (everything needed
// to rebuild the session after a restart). Labeled features round-trip
// exactly: encoding/json writes float64s in shortest form that parses
// back to the same bits.
type sessionMeta struct {
	ID      string `json:"id"`
	Created string `json:"created"`

	// Pool registration: shard paths (external reference, or the packed
	// inline upload inside the session directory) and its validated shape.
	Shards []string `json:"shards"`
	Rows   int      `json:"rows"`
	Dim    int      `json:"dim"`

	Classes int     `json:"classes"`
	Lambda  float64 `json:"lambda,omitempty"`
	Seed    int64   `json:"seed"`

	Selector        string  `json:"selector"`
	Probes          int     `json:"probes,omitempty"`
	CGTol           float64 `json:"cgtol,omitempty"`
	RelaxIters      int     `json:"relax_iters,omitempty"`
	FixedRelaxIters int     `json:"fixed_relax_iters,omitempty"`
	Workers         int     `json:"workers,omitempty"`
	BlockRows       int     `json:"block_rows,omitempty"`

	// LabeledX/LabeledY are directly uploaded labeled examples (the
	// initial seed set and any later example uploads); IndexLabels are
	// pool rows the client has labeled by index.
	LabeledX    [][]float64  `json:"labeled_x"`
	LabeledY    []int        `json:"labeled_y"`
	IndexLabels []IndexLabel `json:"index_labels,omitempty"`

	Rounds []*RoundMeta `json:"rounds,omitempty"`
}

// roundProgress is the live (not persisted) view of the in-flight round.
type roundProgress struct {
	RelaxIteration int
	RelaxDone      bool
	CGIterations   int
}

// Session is one tenant's active-learning dialogue: a registered pool,
// the labels revealed so far, and the round history. All mutable state is
// guarded by mu; the long-running round goroutine takes the lock only to
// update status/progress, never across solver work.
type Session struct {
	mu   sync.Mutex
	meta sessionMeta
	dir  string
	src  *dataset.LiveSource

	// Probability-pass cache for delta-aware rounds: probs holds the
	// reduced pool probabilities computed by the previous Approx-FIRAL
	// round, valid while the labeled set (and therefore the trained
	// model) is unchanged. A round over a grown pool then sweeps only
	// the appended rows. Guarded by mu; the round goroutine snapshots it.
	probs        *mat.Dense
	probsLabeled int // labeled-set size the cache was computed under

	// deleted flips when deleteSession claims the session; a round
	// enqueue that raced the delete observes it and aborts instead of
	// running against a closing pool.
	deleted bool

	// Round lifecycle: at most one round is queued or running per
	// session. cancelRound aborts it; roundWG lets delete/shutdown wait
	// for the goroutine to fully unwind.
	cancelRound func()
	ticket      *Ticket
	progress    roundProgress
	roundWG     sync.WaitGroup
}

// activeRound returns the queued-or-running round, or nil. Caller holds mu.
func (s *Session) activeRoundLocked() *RoundMeta {
	if n := len(s.meta.Rounds); n > 0 {
		if rm := s.meta.Rounds[n-1]; rm.Status == RoundQueued || rm.Status == RoundRunning {
			return rm
		}
	}
	return nil
}

// excludeLocked assembles the tombstone set for the next round: every
// index a previous round selected plus every index-labeled row. Caller
// holds mu.
func (s *Session) excludeLocked() []int {
	seen := map[int]bool{}
	var out []int
	add := func(i int) {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	for _, rm := range s.meta.Rounds {
		for _, i := range rm.Selected {
			add(i)
		}
	}
	for _, il := range s.meta.IndexLabels {
		add(il.Index)
	}
	return out
}

// persistLocked atomically writes session.json. Caller holds mu.
func (s *Session) persistLocked() error {
	raw, err := json.Marshal(&s.meta)
	if err != nil {
		return err
	}
	path := filepath.Join(s.dir, "session.json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (s *Session) persist() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistLocked()
}

// loadSession restores a session from its directory, reopening the pool.
func loadSession(dir string) (*Session, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "session.json"))
	if err != nil {
		return nil, err
	}
	s := &Session{dir: dir}
	if err := json.Unmarshal(raw, &s.meta); err != nil {
		return nil, fmt.Errorf("server: session %s: corrupt session.json: %w", filepath.Base(dir), err)
	}
	src, err := dataset.OpenShards(s.meta.Shards...)
	if err != nil {
		return nil, fmt.Errorf("server: session %s: reopen pool: %w", s.meta.ID, err)
	}
	if src.NumRows() != s.meta.Rows || src.Dim() != s.meta.Dim {
		src.Close()
		return nil, fmt.Errorf("server: session %s: pool changed shape since registration: now %d×%d, registered %d×%d",
			s.meta.ID, src.NumRows(), src.Dim(), s.meta.Rows, s.meta.Dim)
	}
	// All shards — including any appended after creation — reopen as one
	// base segment; appends after restart stack on top of it.
	s.src = dataset.NewLiveSource(src)
	return s, nil
}

// close releases the session's pool handles.
func (s *Session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.src != nil {
		s.src.Close()
		s.src = nil
	}
}

func nowStamp() string { return time.Now().UTC().Format(time.RFC3339) }
