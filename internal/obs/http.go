package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// NewDebugMux builds the debug endpoint set served by louvaind -debug-addr:
//
//	/metrics        Prometheus text exposition of reg
//	/healthz        JSON snapshot from health (rank, mesh state, progress)
//	/debug/vars     expvar
//	/debug/pprof/   net/http/pprof profiles
//
// health may be nil, in which case /healthz reports {"status":"ok"} only.
func NewDebugMux(reg *Registry, health func() any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var body any = map[string]string{"status": "ok"}
		if health != nil {
			body = health()
		}
		json.NewEncoder(w).Encode(body)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StreamEvents answers r with rec's events, each JSON-encoded and written
// through the format frame ("data: %s\n\n" for Server-Sent Events): first
// the events recorded so far, then each one as it is appended. It drains
// rec from a cursor (EventsSince) and blocks on Watch only when a drain came
// back empty, so a reader gets every event once and in order however slowly
// it reads. When done closes, StreamEvents writes the events left and
// returns true, leaving the response open for a terminal frame; it returns
// false when the request's context ends or a write fails first.
func StreamEvents(w http.ResponseWriter, r *http.Request, contentType, frame string, rec *Recorder, done <-chan struct{}) bool {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return false
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	cur, final := 0, false
	for {
		watch := rec.Watch()
		evs, next := rec.EventsSince(cur)
		cur = next
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				return false
			}
			if _, err := fmt.Fprintf(w, frame, data); err != nil {
				return false
			}
		}
		if final {
			return true // the handler's return flushes the response
		}
		if len(evs) > 0 {
			fl.Flush()
			continue
		}
		select {
		case <-watch:
		case <-done:
			final = true // one more drain: events appended before done closed
		case <-r.Context().Done():
			return false
		}
	}
}

// Serve starts h on addr in a background goroutine and returns the
// listening server (its Addr field holds the resolved address, useful with
// ":0"). The caller owns shutdown via srv.Close. Extra handlers (e.g. the
// rank-0 cluster aggregation endpoints) are mounted on h before the call.
func Serve(addr string, h http.Handler) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: h}
	go srv.Serve(ln)
	return srv, nil
}
