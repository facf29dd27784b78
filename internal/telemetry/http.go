package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Server is the opt-in telemetry HTTP endpoint a daemon runs when started
// with -metrics. It serves /metrics (Prometheus text) and /healthz, plus
// any extra handlers the daemon mounts (phish adds /cluster.json for
// phish top and /debug/trace, the job's span timeline).
type Server struct {
	ln  net.Listener
	mux *http.ServeMux
	srv *http.Server
}

// NewServer listens on addr (e.g. ":9090") and starts serving; use
// Handle to mount endpoints. Addr() reports the bound address (useful
// with ":0" in tests).
func NewServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln) //nolint:errcheck // closes with ErrServerClosed on shutdown
	return s, nil
}

// Handle mounts h at pattern.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

// MetricsHandler serves a registry as Prometheus text exposition.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteProm(w) //nolint:errcheck // client gone mid-write
	})
}

// ClusterMetricsHandler serves a cluster rollup (re-assembled per scrape)
// as Prometheus text exposition, followed by reg's when reg is not nil: a
// process-local registry (build info, Go runtime health) whose metric
// families are disjoint from the rollup's. The clearinghouse mounts this
// at /metrics so one scrape covers the whole job.
func ClusterMetricsHandler(snap func() ClusterSnapshot, reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteClusterProm(w, snap()) //nolint:errcheck // client gone mid-write
		if reg != nil {
			reg.WriteProm(w) //nolint:errcheck
		}
	})
}

// ClusterJSONHandler serves a cluster rollup as JSON — what phishtop polls.
func ClusterJSONHandler(snap func() ClusterSnapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap()) //nolint:errcheck
	})
}

// Serve is the one-call setup used by the daemons: listen on addr and
// mount the standard endpoints for reg (nil skips them).
func Serve(addr string, reg *Registry) (*Server, error) {
	s, err := NewServer(addr)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		s.Handle("/metrics", MetricsHandler(reg))
	}
	return s, nil
}
