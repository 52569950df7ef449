package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
)

// The HTTP surface (all JSON):
//
//	POST   /v1/sessions                        create a session
//	GET    /v1/sessions                        list session summaries
//	GET    /v1/sessions/{id}                   one session's summary + rounds
//	DELETE /v1/sessions/{id}                   cancel + delete
//	POST   /v1/sessions/{id}/labels            upload/extend labels
//	POST   /v1/sessions/{id}/pool              append rows to the pool
//	POST   /v1/sessions/{id}/rounds            start an async round (202/429)
//	GET    /v1/sessions/{id}/rounds/{round}    round status + live progress
//	GET    /v1/sessions/{id}/rounds/{round}/selected  the chosen indices
//	GET    /v1/healthz                         liveness
//	GET    /v1/stats                           admission counters
//
// Errors are {"error": "..."} with the status carrying the class: 400
// malformed/invalid, 404 unknown session/round, 409 conflicting round
// state, 429 admission queue full, 503 shutting down.

// createRequest is the POST /v1/sessions body.
type createRequest struct {
	// Pool registration: exactly one of Shards (paths on the server's
	// filesystem) or PoolCSV (inline features-only CSV, packed server-side).
	Shards  []string `json:"shards,omitempty"`
	PoolCSV string   `json:"pool_csv,omitempty"`

	// Labeled is the initial labeled set (required, ≥ 2 classes).
	Labeled labeledUpload `json:"labeled"`

	// Classes overrides the class count inferred from the labels (set it
	// when the seed set does not yet cover every class).
	Classes int     `json:"classes,omitempty"`
	Lambda  float64 `json:"lambda,omitempty"`
	Seed    int64   `json:"seed,omitempty"`

	// Selector is any registered, servable strategy (default Approx-FIRAL;
	// aliases accepted).
	Selector        string  `json:"selector,omitempty"`
	Probes          int     `json:"probes,omitempty"`
	CGTol           float64 `json:"cgtol,omitempty"`
	RelaxIters      int     `json:"relax_iters,omitempty"`
	FixedRelaxIters int     `json:"fixed_relax_iters,omitempty"`
}

// labeledUpload is a parallel feature/label pair.
type labeledUpload struct {
	X [][]float64 `json:"x"`
	Y []int       `json:"y"`
}

// labelsRequest is the POST /v1/sessions/{id}/labels body: new labeled
// examples by value, pool rows by index, or both.
type labelsRequest struct {
	Examples labeledUpload `json:"examples"`
	Pool     []IndexLabel  `json:"pool,omitempty"`
}

// roundRequest is the POST /v1/sessions/{id}/rounds body.
type roundRequest struct {
	Budget int `json:"budget"`
}

// appendPoolRequest is the POST /v1/sessions/{id}/pool body: exactly one
// of Shards or PoolCSV, same as pool registration at create time. The new
// rows land after the existing ones, so previously reported indices stay
// valid; the next round scores the grown pool.
type appendPoolRequest struct {
	Shards  []string `json:"shards,omitempty"`
	PoolCSV string   `json:"pool_csv,omitempty"`
}

// sessionView is the wire form of a session summary (the labeled features
// themselves are deliberately not echoed back).
type sessionView struct {
	ID       string       `json:"id"`
	Created  string       `json:"created"`
	Selector string       `json:"selector"`
	Rows     int          `json:"rows"`
	Dim      int          `json:"dim"`
	Classes  int          `json:"classes"`
	Labeled  int          `json:"labeled"`
	Rounds   []*RoundMeta `json:"rounds,omitempty"`
}

// roundView is the wire form of round status, including live progress for
// a running round.
type roundView struct {
	RoundMeta
	QueuePosition  int  `json:"queue_position,omitempty"`
	RelaxIteration int  `json:"relax_iteration,omitempty"`
	RelaxDone      bool `json:"relax_done,omitempty"`
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/labels", s.handleLabels)
	mux.HandleFunc("POST /v1/sessions/{id}/pool", s.handleAppendPool)
	mux.HandleFunc("POST /v1/sessions/{id}/rounds", s.handleStartRound)
	mux.HandleFunc("GET /v1/sessions/{id}/rounds/{round}", s.handleRound)
	mux.HandleFunc("GET /v1/sessions/{id}/rounds/{round}/selected", s.handleSelected)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError maps the package's typed errors onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrSessionNotFound), errors.Is(err, ErrRoundNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrRoundActive):
		status = http.StatusConflict
	case errors.Is(err, ErrSaturated):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: malformed request body: %w", err)
	}
	return nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	sess, err := s.createSession(&req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, sess.view())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]*sessionView, 0, len(s.sessions))
	for _, sess := range s.sessions {
		views = append(views, sess.view())
	}
	s.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"sessions": views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.view())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.deleteSession(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleLabels(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req labelsRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := s.addLabels(sess, req.Examples.X, req.Examples.Y, req.Pool); err != nil {
		writeError(w, err)
		return
	}
	sess.mu.Lock()
	total := len(sess.meta.LabeledY) + len(sess.meta.IndexLabels)
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]int{"labeled": total})
}

func (s *Server) handleAppendPool(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req appendPoolRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	rows, gen, err := s.appendPool(sess, req.Shards, req.PoolCSV)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"rows":       rows,
		"generation": gen,
	})
}

func (s *Server) handleStartRound(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var req roundRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	round, pos, err := s.startRound(sess, req.Budget)
	if err != nil {
		writeError(w, err)
		return
	}
	// Position 0 means the round holds a slot and is starting; otherwise
	// it waits in the admission queue. The RoundMeta itself now belongs to
	// the round goroutine — report the snapshot, not the live struct.
	status := RoundQueued
	if pos == 0 {
		status = RoundRunning
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"round":          round,
		"status":         status,
		"queue_position": pos,
	})
}

// roundByNumber finds a round; caller must hold sess.mu.
func roundByNumberLocked(sess *Session, number string) (*RoundMeta, error) {
	n, err := strconv.Atoi(number)
	if err != nil || n < 1 || n > len(sess.meta.Rounds) {
		return nil, fmt.Errorf("%w: session %s has rounds 1..%d, not %q",
			ErrRoundNotFound, sess.meta.ID, len(sess.meta.Rounds), number)
	}
	return sess.meta.Rounds[n-1], nil
}

func (s *Server) handleRound(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	sess.mu.Lock()
	rm, err := roundByNumberLocked(sess, r.PathValue("round"))
	if err != nil {
		sess.mu.Unlock()
		writeError(w, err)
		return
	}
	view := roundView{RoundMeta: *rm}
	view.Selected = append([]int(nil), rm.Selected...)
	if rm.Status == RoundQueued && sess.ticket != nil {
		view.QueuePosition = sess.ticket.Position()
	}
	if rm.Status == RoundRunning {
		view.RelaxIteration = sess.progress.RelaxIteration
		view.RelaxDone = sess.progress.RelaxDone
		view.CGIterations = sess.progress.CGIterations
	}
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, &view)
}

func (s *Server) handleSelected(w http.ResponseWriter, r *http.Request) {
	sess, err := s.session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	sess.mu.Lock()
	rm, err := roundByNumberLocked(sess, r.PathValue("round"))
	if err != nil {
		sess.mu.Unlock()
		writeError(w, err)
		return
	}
	status := rm.Status
	selected := append([]int(nil), rm.Selected...)
	sess.mu.Unlock()
	if status != RoundDone {
		writeError(w, fmt.Errorf("server: round is %s, selected indices exist only once it is %s", status, RoundDone))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"selected": selected})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	running, queued := s.adm.Stats()
	s.mu.Lock()
	sessions := len(s.sessions)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]int{
		"sessions":       sessions,
		"rounds_running": running,
		"rounds_queued":  queued,
	})
}

// view renders the session summary.
func (s *Session) view() *sessionView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := &sessionView{
		ID:       s.meta.ID,
		Created:  s.meta.Created,
		Selector: s.meta.Selector,
		Rows:     s.meta.Rows,
		Dim:      s.meta.Dim,
		Classes:  s.meta.Classes,
		Labeled:  len(s.meta.LabeledY) + len(s.meta.IndexLabels),
	}
	for _, rm := range s.meta.Rounds {
		c := *rm
		c.Selected = append([]int(nil), rm.Selected...)
		v.Rounds = append(v.Rounds, &c)
	}
	return v
}
