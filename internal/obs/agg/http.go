package agg

import (
	"net/http"

	"parlouvain/internal/obs"
)

// Attach mounts the cluster endpoints on mux (typically the debug mux from
// obs.NewDebugMux):
//
//	/metrics/cluster  Prometheus exposition of the merged cluster view
//	/events           Server-Sent Events stream of the merged event feed
//	/events.jsonl     the same feed as newline-delimited JSON
//
// Both streams (obs.StreamEvents) replay the collected backlog, then follow
// live events, losing none, until the client disconnects or the collector's
// feed closes.
func (c *Collector) Attach(mux *http.ServeMux) {
	mux.HandleFunc("/metrics/cluster", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.WriteClusterPrometheus(w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		obs.StreamEvents(w, r, "text/event-stream", "data: %s\n\n", &c.events, c.done)
	})
	mux.HandleFunc("/events.jsonl", func(w http.ResponseWriter, r *http.Request) {
		obs.StreamEvents(w, r, "application/x-ndjson", "%s\n", &c.events, c.done)
	})
}
