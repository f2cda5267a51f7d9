package obs

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
)

// Server is the live-introspection HTTP endpoint mounted behind the
// -obs-addr flag of the serving commands:
//
//	GET /metrics       registry snapshot as one JSON object
//	GET /trace/tree    one assembled trace tree by ?id= (decimal or 0x hex)
//	GET /trace/slowest the ?n= longest retained trace trees (default 10,
//	                   n=0 serves every retained tree)
//	GET /events/recent event-journal ring (state transitions, oldest first)
//	GET /healthz       liveness checks; 503 when any fails
//	GET /readyz        liveness + readiness checks; 503 when any fails
//	GET /debug/pprof/  standard pprof handlers (explicitly wired to the
//	                   server's own mux, not http.DefaultServeMux)
//
// Start listens and serves in a background goroutine; Close shuts the
// server down and joins that goroutine, so a started server never leaks.
type Server struct {
	// Registry backs /metrics; nil serves an empty snapshot.
	Registry *Registry
	// Journal backs /events/recent; nil serves an empty list.
	Journal *Journal
	// Traces backs /trace/tree and /trace/slowest; nil serves 404 / empty.
	Traces *TraceStore
	// Health backs /healthz and /readyz; nil reports vacuously healthy.
	Health *Health

	wg       sync.WaitGroup
	ln       net.Listener
	srv      *http.Server
	serveErr error // written by the serve goroutine, read after wg.Wait
}

// Start binds addr ("host:port"; ":0" picks a free port — see Addr) and
// serves in the background until Close.
func (s *Server) Start(addr string) error {
	if s.srv != nil {
		return errors.New("obs: server already started")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/trace/tree", s.handleTraceTree)
	mux.HandleFunc("/trace/slowest", s.handleTraceSlowest)
	mux.HandleFunc("/events/recent", s.handleEvents)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: mux}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr = err
		}
	}()
	return nil
}

// Addr returns the bound listener address, or nil before Start.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener, closes open connections, and waits for the
// serve goroutine. Safe to call without a successful Start.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	s.wg.Wait()
	if s.serveErr != nil {
		return s.serveErr
	}
	return err
}

// writeJSON marshals v and writes it with a trailing newline. Encode
// errors surface as a 500; write errors mean the client went away and are
// deliberately dropped.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(data, '\n'))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.Registry == nil {
		writeJSON(w, Snapshot{})
		return
	}
	writeJSON(w, s.Registry.Snapshot())
}

// ParseTraceID parses a trace ID in decimal or 0x-prefixed hex — the two
// forms trace IDs appear in across JSON artifacts and rendered trees.
func ParseTraceID(s string) (uint64, error) {
	if len(s) > 2 && (s[:2] == "0x" || s[:2] == "0X") {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}

func (s *Server) handleTraceTree(w http.ResponseWriter, r *http.Request) {
	id, err := ParseTraceID(r.URL.Query().Get("id"))
	if err != nil {
		http.Error(w, "bad trace id: "+err.Error(), http.StatusBadRequest)
		return
	}
	tree, ok := s.Traces.Trace(id)
	if !ok {
		http.Error(w, "trace not found", http.StatusNotFound)
		return
	}
	writeJSON(w, tree)
}

func (s *Server) handleTraceSlowest(w http.ResponseWriter, r *http.Request) {
	n := 10
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	trees := s.Traces.Slowest(n)
	if trees == nil {
		trees = []TraceTree{}
	}
	writeJSON(w, trees)
}

func (s *Server) handleEvents(w http.ResponseWriter, _ *http.Request) {
	events := s.Journal.Recent()
	if events == nil {
		events = []Event{}
	}
	writeJSON(w, events)
}

// writeHealth serves one health snapshot: the JSON body always carries
// the full per-check breakdown, and the status code makes the verdict
// consumable by probes that only look at HTTP status.
func writeHealth(w http.ResponseWriter, snap HealthSnapshot) {
	if snap.Checks == nil {
		snap.Checks = []CheckStatus{}
	}
	data, err := json.Marshal(snap)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if !snap.Healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_, _ = w.Write(append(data, '\n'))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeHealth(w, s.Health.Liveness())
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	writeHealth(w, s.Health.Readiness())
}
