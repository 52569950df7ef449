package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	pub "repro"
	"repro/internal/dataset"
	"repro/internal/mat"
)

// Config configures a Server.
type Config struct {
	// DataDir is the root under which every session keeps its directory
	// (session.json, RELAX state file, packed inline pools). Required.
	DataDir string
	// Concurrency is the number of selection rounds allowed to run at
	// once (admission capacity C; default 2).
	Concurrency int
	// QueueDepth is the number of rounds allowed to wait beyond the
	// running ones (admission depth Q; default 8). Requests past C+Q are
	// refused with 429.
	QueueDepth int
	// MaxResidentBytes caps pool materialization for selectors that need
	// a resident pool (Exact-FIRAL, K-Means). Default 1 GiB.
	MaxResidentBytes int64
	// Ranks enables the Dist-FIRAL selector with that many in-process
	// ranks per round (goroutine ranks over stream shards of the session
	// pool). Zero (the default) keeps Dist-FIRAL unservable.
	Ranks int
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 2
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	} else if c.QueueDepth == 0 {
		c.QueueDepth = 8
	}
	if c.MaxResidentBytes <= 0 {
		c.MaxResidentBytes = 1 << 30
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server multiplexes tenant sessions over the shared worker pool.
type Server struct {
	cfg Config
	adm *Admission

	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int
	closed   bool

	wg sync.WaitGroup // all round goroutines
}

// Typed errors the HTTP layer maps to status codes.
var (
	ErrSessionNotFound = errors.New("server: session not found")
	ErrRoundNotFound   = errors.New("server: round not found")
	ErrRoundActive     = errors.New("server: a round is already queued or running for this session")
	ErrClosed          = errors.New("server: shutting down")
)

// New builds a Server over DataDir, restoring every persisted session and
// re-enqueueing any round that was queued, running, or interrupted when
// the previous process died — those resume from their checkpoint rather
// than restarting. Recovery admission is forced past the queue depth
// (recovered work must not be shed) but still respects the concurrency
// bound.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("server: Config.DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		adm:      NewAdmission(cfg.Concurrency, cfg.QueueDepth),
		baseCtx:  ctx,
		cancel:   cancel,
		sessions: map[string]*Session{},
	}
	entries, err := os.ReadDir(cfg.DataDir)
	if err != nil {
		cancel()
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(cfg.DataDir, e.Name())
		if _, err := os.Stat(filepath.Join(dir, "session.json")); err != nil {
			continue
		}
		sess, err := loadSession(dir)
		if err != nil {
			cfg.Logf("recover: skipping %s: %v", e.Name(), err)
			continue
		}
		s.sessions[sess.meta.ID] = sess
		if n := idNumber(sess.meta.ID); n >= s.nextID {
			s.nextID = n + 1
		}
	}
	// Re-enqueue interrupted rounds only after every session is loaded,
	// so recovery order does not depend on directory listing order more
	// than admission FIFO already implies.
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		sess := s.sessions[id]
		sess.mu.Lock()
		var resume *RoundMeta
		if n := len(sess.meta.Rounds); n > 0 {
			if rm := sess.meta.Rounds[n-1]; rm.Status != RoundDone && rm.Status != RoundFailed {
				resume = rm
			}
		}
		sess.mu.Unlock()
		if resume != nil {
			s.cfg.Logf("recover: session %s round %d (%s) re-enqueued", id, resume.Round, resume.Status)
			if _, err := s.enqueueRoundPos(sess, resume, true); err != nil {
				s.cfg.Logf("recover: session %s round %d: %v", id, resume.Round, err)
			}
		}
	}
	return s, nil
}

func idNumber(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "s"))
	return n
}

// Close drains the server: every running round is cancelled (its latest
// checkpoint stays on disk, marked interrupted for the next startup to
// resume), round goroutines are waited out, and pool handles close.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sess := range s.sessions {
		sess.close()
	}
	return nil
}

// session looks up a live session.
func (s *Server) session(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	return sess, nil
}

// createRequest is defined in handlers.go; createSession is the transport-
// independent core: validate, register the pool, persist, return the
// session.
func (s *Server) createSession(req *createRequest) (*Session, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	id := fmt.Sprintf("s%06d", s.nextID)
	s.nextID++
	s.mu.Unlock()

	if len(req.Labeled.Y) == 0 {
		return nil, errors.New("server: labeled set required: labeled.x and labeled.y")
	}
	classes := req.Classes
	if classes == 0 {
		classes = slices.Max(req.Labeled.Y) + 1
	}
	if classes < 2 {
		return nil, fmt.Errorf("server: need at least 2 classes in the labeled set, got %d", classes)
	}
	selector, err := servableSelector(req.Selector, s.cfg.Ranks)
	if err != nil {
		return nil, err
	}

	dir := filepath.Join(s.cfg.DataDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fail := func(err error) (*Session, error) {
		os.RemoveAll(dir)
		return nil, err
	}

	shards, src, err := openPool(req.Shards, req.PoolCSV, filepath.Join(dir, "pool.shard"))
	if err != nil {
		return fail(err)
	}
	if err := checkExamples(req.Labeled.X, req.Labeled.Y, src.Dim(), classes); err != nil {
		src.Close()
		return fail(err)
	}

	sess := &Session{
		dir: dir,
		src: dataset.NewLiveSource(src),
		meta: sessionMeta{
			ID:              id,
			Created:         nowStamp(),
			Shards:          shards,
			Rows:            src.NumRows(),
			Dim:             src.Dim(),
			Classes:         classes,
			Lambda:          req.Lambda,
			Seed:            req.Seed,
			Selector:        selector,
			Probes:          req.Probes,
			CGTol:           req.CGTol,
			RelaxIters:      req.RelaxIters,
			FixedRelaxIters: req.FixedRelaxIters,
			LabeledX:        req.Labeled.X,
			LabeledY:        req.Labeled.Y,
		},
	}
	if err := sess.persist(); err != nil {
		src.Close()
		return fail(err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		src.Close()
		os.RemoveAll(dir)
		return nil, ErrClosed
	}
	s.sessions[id] = sess
	s.mu.Unlock()
	s.cfg.Logf("session %s: pool %d×%d (%d shards), %d classes, selector %s",
		id, src.NumRows(), src.Dim(), len(shards), classes, selector)
	return sess, nil
}

// appendPool grows the session's pool in place: the new shards (or an
// inline CSV packed into the session directory) stack on top of the
// existing rows, keeping every already-assigned global index stable.
// Appends during an active round are refused for the same reason label
// uploads are — the round's checkpoint records a trajectory over the old
// pool and would be unresumable against a different one.
func (s *Server) appendPool(sess *Session, shardPaths []string, poolCSV string) (rows int, gen int64, err error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.deleted {
		return 0, 0, fmt.Errorf("%w: %q", ErrSessionNotFound, sess.meta.ID)
	}
	if rm := sess.activeRoundLocked(); rm != nil {
		return 0, 0, fmt.Errorf("%w (round %d is %s; wait for it or cancel the session)", ErrRoundActive, rm.Round, rm.Status)
	}
	shardPaths, seg, err := openPool(shardPaths, poolCSV,
		filepath.Join(sess.dir, fmt.Sprintf("pool-%d.shard", len(sess.meta.Shards))))
	if err != nil {
		return 0, 0, err
	}
	gen, err = sess.src.Append(seg) // takes ownership of seg, dim-checked
	if err != nil {
		seg.Close()
		if poolCSV != "" {
			os.Remove(shardPaths[0]) // packed above; the pool never held it
		}
		return 0, 0, fmt.Errorf("server: append pool: %w", err)
	}
	sess.meta.Shards = append(sess.meta.Shards, shardPaths...)
	sess.meta.Rows = sess.src.NumRows()
	if err := sess.persistLocked(); err != nil {
		return 0, 0, err
	}
	s.cfg.Logf("session %s: pool grown to %d×%d (+%d shards, generation %d)",
		sess.meta.ID, sess.meta.Rows, sess.meta.Dim, len(shardPaths), gen)
	return sess.meta.Rows, gen, nil
}

// deleteSession cancels any in-flight round, waits for it to unwind,
// removes the session from the store, and deletes its directory.
func (s *Server) deleteSession(id string) error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	sess.mu.Lock()
	sess.deleted = true
	cancel := sess.cancelRound
	sess.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	sess.roundWG.Wait()
	sess.close()
	return os.RemoveAll(sess.dir)
}

// addLabels appends uploaded labels. Mutating the training set under a
// running round would make its checkpoint unresumable (the resumed
// trajectory would train on different data), so uploads during an active
// round are refused.
func (s *Server) addLabels(sess *Session, examplesX [][]float64, examplesY []int, byIndex []IndexLabel) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if rm := sess.activeRoundLocked(); rm != nil {
		return fmt.Errorf("%w (round %d is %s; wait for it or cancel the session)", ErrRoundActive, rm.Round, rm.Status)
	}
	if err := checkExamples(examplesX, examplesY, sess.meta.Dim, sess.meta.Classes); err != nil {
		return err
	}
	already := map[int]bool{}
	for _, il := range sess.meta.IndexLabels {
		already[il.Index] = true
	}
	for _, il := range byIndex {
		if il.Index < 0 || il.Index >= sess.meta.Rows {
			return fmt.Errorf("server: pool index %d out of range [0, %d)", il.Index, sess.meta.Rows)
		}
		if il.Label < 0 || il.Label >= sess.meta.Classes {
			return fmt.Errorf("server: label %d for index %d out of range [0, %d)", il.Label, il.Index, sess.meta.Classes)
		}
		if already[il.Index] {
			return fmt.Errorf("server: pool index %d is already labeled", il.Index)
		}
		already[il.Index] = true
	}
	sess.meta.LabeledX = append(sess.meta.LabeledX, examplesX...)
	sess.meta.LabeledY = append(sess.meta.LabeledY, examplesY...)
	sess.meta.IndexLabels = append(sess.meta.IndexLabels, byIndex...)
	return sess.persistLocked()
}

// startRound creates the next round and enqueues it, returning the round
// number and queue position. The admission decision is synchronous: the
// caller learns immediately whether the round is running (position 0),
// queued (position ≥ 1), or refused (ErrSaturated → 429). The returned
// values are snapshots — the round goroutine owns the RoundMeta once it
// is enqueued.
func (s *Server) startRound(sess *Session, budget int) (round, pos int, err error) {
	if budget <= 0 {
		return 0, 0, errors.New("server: round budget must be positive")
	}
	sess.mu.Lock()
	if rm := sess.activeRoundLocked(); rm != nil {
		sess.mu.Unlock()
		return 0, 0, fmt.Errorf("%w (round %d)", ErrRoundActive, rm.Round)
	}
	if budget > sess.meta.Rows-len(sess.excludeLocked()) {
		sess.mu.Unlock()
		return 0, 0, fmt.Errorf("server: budget %d exceeds the %d unselected pool points",
			budget, sess.meta.Rows-len(sess.excludeLocked()))
	}
	sess.mu.Unlock()
	// The round number and the conflict re-check happen inside
	// enqueueRoundPos under the session lock — two concurrent starts
	// cannot both append.
	rm := &RoundMeta{Budget: budget, Status: RoundQueued}
	pos, err = s.enqueueRoundPos(sess, rm, false)
	if err != nil {
		return 0, 0, err
	}
	return rm.Round, pos, nil
}

// enqueueRoundPos admits rm (forced for recovery), launches its
// goroutine and returns its queue position.
func (s *Server) enqueueRoundPos(sess *Session, rm *RoundMeta, force bool) (int, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	ticket, pos, err := s.adm.Admit(force)
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.wg.Add(1)
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(s.baseCtx)
	sess.mu.Lock()
	abort := func(err error) (int, error) {
		sess.mu.Unlock()
		cancel()
		ticket.Release()
		s.wg.Done()
		return 0, err
	}
	if sess.deleted {
		return abort(fmt.Errorf("%w: %q", ErrSessionNotFound, sess.meta.ID))
	}
	if !force {
		// Re-check under the session lock: a concurrent start may have won
		// the race since the caller's fast-path check.
		if active := sess.activeRoundLocked(); active != nil {
			return abort(fmt.Errorf("%w (round %d)", ErrRoundActive, active.Round))
		}
		rm.Round = len(sess.meta.Rounds) + 1
		sess.meta.Rounds = append(sess.meta.Rounds, rm)
	}
	rm.Status = RoundQueued
	rm.Error = ""
	sess.cancelRound = cancel
	sess.ticket = ticket
	sess.progress = roundProgress{}
	if err := sess.persistLocked(); err != nil {
		s.cfg.Logf("session %s: persist: %v", sess.meta.ID, err)
	}
	sess.roundWG.Add(1)
	sess.mu.Unlock()

	go s.runRound(ctx, cancel, sess, rm, ticket)
	return pos, nil
}

// resident materializes the whole pool (selectors that need it), bounded
// by MaxResidentBytes.
func (s *Server) resident(src dataset.PoolSource) (*mat.Dense, error) {
	need := int64(src.NumRows()) * int64(src.Dim()) * 8
	if need > s.cfg.MaxResidentBytes {
		return nil, fmt.Errorf("server: selector needs a resident pool: %d×%d doubles = %d bytes exceeds the %d-byte cap",
			src.NumRows(), src.Dim(), need, s.cfg.MaxResidentBytes)
	}
	x := mat.NewDense(src.NumRows(), src.Dim())
	if err := src.ReadRows(0, src.NumRows(), x); err != nil {
		return nil, err
	}
	return x, nil
}

// servableSelector resolves name through the selector registry and
// rejects strategies the service cannot run, with the full registry list
// in the error — the service-side counterpart of `firal -select help`.
// Dist-FIRAL is servable only when the server was configured with ranks
// (firald -ranks), since a round then runs that many in-process ranks.
func servableSelector(name string, ranks int) (string, error) {
	if name == "" {
		return "Approx-FIRAL", nil
	}
	canonical, ok := pub.CanonicalName(name)
	if !ok {
		return "", fmt.Errorf("server: unknown selector %q (registered: %s)",
			name, strings.Join(pub.Names(), ", "))
	}
	if canonical == "Dist-FIRAL" && ranks <= 0 {
		return "", fmt.Errorf("server: selector %s needs the server started with -ranks (in-process rank count); use Approx-FIRAL or restart firald with -ranks", canonical)
	}
	return canonical, nil
}

// checkExamples validates labeled examples uploaded by value: x and y
// pair up, every row has the pool's d features, and every label is a
// class in [0, classes).
func checkExamples(x [][]float64, y []int, d, classes int) error {
	if len(x) != len(y) {
		return fmt.Errorf("server: x (%d rows) and y (%d labels) must match", len(x), len(y))
	}
	for i, row := range x {
		if len(row) != d {
			return fmt.Errorf("server: x[%d] has %d features, pool dimension is %d", i, len(row), d)
		}
		if y[i] < 0 || y[i] >= classes {
			return fmt.Errorf("server: y[%d] = %d out of range [0, %d)", i, y[i], classes)
		}
	}
	return nil
}

// openPool opens a pool given as exactly one of shard paths or an inline
// features-only CSV, which it first packs into a shard at packPath (the
// pool is unlabeled). It returns the shard paths to record with the
// source; dataset errors name the offending shard and its expected shape.
// A packed shard that fails to open is removed.
func openPool(shards []string, csv, packPath string) ([]string, *dataset.ShardSource, error) {
	switch {
	case len(shards) > 0 && csv != "":
		return nil, nil, errors.New("server: give either shards or pool_csv, not both")
	case len(shards) == 0 && csv == "":
		return nil, nil, errors.New("server: pool required: shards (paths) or pool_csv (inline upload)")
	case csv != "":
		if err := packInlinePool(packPath, csv); err != nil {
			return nil, nil, fmt.Errorf("server: pool_csv: %w", err)
		}
		shards = []string{packPath}
	}
	src, err := dataset.OpenShards(shards...)
	if err != nil {
		if csv != "" {
			os.Remove(packPath)
		}
		return nil, nil, err
	}
	return shards, src, nil
}

// packInlinePool writes an uploaded features-only CSV into a shard file.
func packInlinePool(shardPath, csvText string) error {
	dir := filepath.Dir(shardPath)
	csvPath := filepath.Join(dir, "pool.csv")
	if err := os.WriteFile(csvPath, []byte(csvText), 0o644); err != nil {
		return err
	}
	defer os.Remove(csvPath) // the shard is the durable copy
	src, err := dataset.NewCSVSource(csvPath, dataset.NoLabelColumn)
	if err != nil {
		return err
	}
	defer src.Close()
	return dataset.PackShard(shardPath, src)
}
