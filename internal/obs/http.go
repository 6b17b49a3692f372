package obs

import (
	"encoding/json"
	"expvar"
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
