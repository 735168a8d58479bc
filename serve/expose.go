package serve

import (
	"net/http"
	"net/http/pprof"

	"dcasdeque/deque"
)

// ExpositionMux returns a mux with the repository's full observability
// surface mounted: one registry, one rendering — the Prometheus text
// exposition at /metrics, which Prometheus and cmd/dequetop both
// scrape — and the pprof handlers under /debug/pprof.  Every serving
// binary (dequeserve, examples/worksteal -listen) shares this wiring
// instead of hand-rolling it.  Handlers are mounted on a fresh mux, not
// http.DefaultServeMux, so embedding binaries control their surface.
func ExpositionMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", deque.PrometheusHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
