package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"parlouvain/internal/graph"
	"parlouvain/internal/obs"
)

// maxBodyBytes bounds a POST /jobs body (inline edge uploads included).
const maxBodyBytes = 64 << 20

// Attach mounts the job API on mux:
//
//	POST   /jobs              submit a job (Spec JSON body) → 202 + Status
//	GET    /jobs              list every job in submission order
//	GET    /jobs/{id}         poll one job's Status
//	GET    /jobs/{id}/result  fetch the finished result (409 until done);
//	                          ?format=text streams the partition as text
//	GET    /jobs/{id}/events  SSE tail: recorded backlog, then live events,
//	                          closed by a terminal "event: done" frame
//	GET    /jobs/{id}/metrics per-job Prometheus exposition, job="{id}" label
//	DELETE /jobs/{id}         cancel (queued → dropped, running → ctx cancel)
//
// The handlers use Go 1.22 method-qualified mux patterns, so mounting on the
// louvaind debug mux leaves the existing endpoints untouched.
func (s *Store) Attach(mux *http.ServeMux) {
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/metrics", s.handleJobMetrics)
}

// Handler returns a standalone mux carrying only the job API (tests and
// embedders that do not share louvaind's debug mux).
func (s *Store) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Attach(mux)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Store) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad job spec: %w", err))
		return
	}
	j, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, j.Snapshot())
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default: // validation: unknown algo (enumerating the registry), bad source, ...
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Store) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Snapshot())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// lookup resolves the {id} path value, writing the 404 itself on a miss.
func (s *Store) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, s.notFound(r.PathValue("id")))
	}
	return j, ok
}

func (s *Store) handleGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.Snapshot())
	}
}

func (s *Store) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, _, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

// resultView is the GET /jobs/{id}/result JSON body.
type resultView struct {
	Status
	Assignment []graph.V          `json:"assignment"`
	LevelQ     []float64          `json:"level_q,omitempty"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

func (s *Store) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	res, done := j.Result()
	if !done {
		// 409: the resource exists but is not in a state that has a result
		// yet (or ever, for failed/cancelled jobs — the status says which).
		writeJSON(w, http.StatusConflict, j.Snapshot())
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		graph.WritePartition(w, res.Assignment)
		return
	}
	view := resultView{Status: j.Snapshot(), Assignment: res.Assignment, Extra: res.Extra}
	for _, lv := range res.Levels {
		view.LevelQ = append(view.LevelQ, lv.Q)
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Store) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	j.Metrics().WritePrometheusLabeled(w, map[string]string{"job": j.ID()})
}

// handleEvents is the per-job SSE tail (obs.StreamEvents): the recorded
// backlog, then live events, then a terminal "event: done" frame carrying
// the final Status once the job finishes and the backlog is fully drained.
func (s *Store) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok || !obs.StreamEvents(w, r, "text/event-stream", "data: %s\n\n", j.Recorder(), j.Done()) {
		return
	}
	if data, err := json.Marshal(j.Snapshot()); err == nil {
		fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
	}
}
