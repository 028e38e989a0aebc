package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewDebugMux builds the debug endpoint mux for an observer:
//
//	/metrics           Prometheus text exposition of the registry
//	/debug/trace.json  Chrome trace_event dump of the span ring
//	/debug/pprof/*     the standard runtime profiles
func NewDebugMux(o *Observer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.Reg.writePrometheus(w)
	})
	mux.HandleFunc("/debug/trace.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		o.Trace.writeTraceJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug HTTP server.
type DebugServer struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string
	srv  *http.Server
	ln   net.Listener
}

// ServeDebug starts the debug HTTP server on addr (e.g. ":6060") and
// returns immediately; serving continues in the background until
// Close. It is the implementation behind the cmds' -debug-addr flag.
func ServeDebug(addr string, o *Observer) (*DebugServer, error) {
	return ServeMux(addr, NewDebugMux(o))
}

// ServeMux is ServeDebug over a caller-built mux — the hook for cmds
// that mount extra endpoints (e.g. a health engine's /healthz and
// /debug/health) next to the standard debug set from NewDebugMux.
func ServeMux(addr string, mux *http.ServeMux) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server listen %s: %w", addr, err)
	}
	s := &DebugServer{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Close stops the server and releases its listener.
func (s *DebugServer) Close() error { return s.srv.Close() }
