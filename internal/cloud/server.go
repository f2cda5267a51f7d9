package cloud

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Server is the TCP front of a decode plane: an accept loop plus an idle
// reaper around a session handler. Build one with Service.NewServer or
// fleet.Front.NewServer, which fill in Handler and Obs.
type Server struct {
	// Handler serves each accepted session to completion. Required.
	Handler func(rw io.ReadWriter) error
	// Obs receives the server's own metrics (cloud_accept_retries_total,
	// cloud_sessions_reaped_total, cloud_sessions_active_count). Required.
	Obs *obs.Registry
	// Logf receives the server's diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// Journal, when set, records a cloud_session_reap event (value: the
	// session's total bytes moved) every time the idle sweeper closes a
	// connection.
	Journal *obs.Journal
	// SessionTimeout reaps sessions that moved no bytes in either
	// direction for at least this long: their connections are closed,
	// which unwinds the handler and releases the session's farm slots.
	// This is the cloud's one dead-peer mechanism. Zero disables it.
	SessionTimeout time.Duration

	ln        net.Listener
	wg        sync.WaitGroup
	reapOnce  sync.Once
	quit      chan struct{}
	sessionMu sync.Mutex
	sessions  []*trackedConn
}

// NewServer wraps the service in a TCP server: accepted connections flow
// through ServeConn, and the server's own metrics land next to the cloud_*
// series. Call it after UseObs and after setting Logf.
func (s *Service) NewServer() *Server {
	return &Server{Handler: s.ServeConn, Obs: s.reg, Logf: s.Logf}
}

// trackedConn counts bytes moved in either direction so the reaper can
// tell an idle session from a busy one without touching session state.
type trackedConn struct {
	net.Conn
	activity atomic.Uint64 // bytes read + written

	// Reaper-private sweep state, guarded by Server.sessionMu.
	lastSeen uint64
	idle     int
	reaped   bool
}

func (c *trackedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.activity.Add(uint64(n))
	return n, err
}

func (c *trackedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.activity.Add(uint64(n))
	return n, err
}

// Listen starts accepting gateway connections on addr ("host:port";
// ":0" picks a free port) in the background. Use Addr to discover the
// bound address and Close to stop.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.Serve(ln)
	}()
	return nil
}

// Serve accepts gateway sessions on ln until the listener is closed.
// Transient Accept failures (resource exhaustion, aborted handshakes) are
// logged, counted on cloud_accept_retries_total, and retried with capped
// exponential backoff instead of killing the accept loop; a closed
// listener returns nil. Callers who bring their own listener use Serve
// directly; Listen wraps it.
func (s *Server) Serve(ln net.Listener) error {
	if s.ln == nil {
		s.ln = ln
	}
	s.startReaper()
	retries := s.Obs.Counter("cloud_accept_retries_total")
	active := s.Obs.Gauge("cloud_sessions_active_count")
	const minDelay, maxDelay = 5 * time.Millisecond, 500 * time.Millisecond
	delay := minDelay
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			retries.Inc()
			if s.Logf != nil {
				s.Logf("accept failed (retrying in %v): %v", delay, err)
			}
			time.Sleep(delay)
			if delay *= 2; delay > maxDelay {
				delay = maxDelay
			}
			continue
		}
		delay = minDelay
		tc := &trackedConn{Conn: conn}
		s.register(tc, active)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.unregister(tc, active)
			defer tc.Close()
			if err := s.Handler(tc); err != nil && s.Logf != nil {
				s.Logf("session error: %v", err)
			}
		}()
	}
}

func (s *Server) register(c *trackedConn, active *obs.Gauge) {
	s.sessionMu.Lock()
	s.sessions = append(s.sessions, c)
	active.Set(int64(len(s.sessions)))
	s.sessionMu.Unlock()
}

func (s *Server) unregister(c *trackedConn, active *obs.Gauge) {
	s.sessionMu.Lock()
	for i, sc := range s.sessions {
		if sc == c {
			s.sessions = append(s.sessions[:i], s.sessions[i+1:]...)
			break
		}
	}
	active.Set(int64(len(s.sessions)))
	s.sessionMu.Unlock()
}

// startReaper launches the idle-session sweeper once, when SessionTimeout
// is set: every SessionTimeout/4 it snapshots each session's byte counter,
// and a session whose counter is unchanged for four consecutive sweeps
// (≥ SessionTimeout of silence) has its connection closed and is counted
// on cloud_sessions_reaped_total.
func (s *Server) startReaper() {
	if s.SessionTimeout <= 0 {
		return
	}
	s.reapOnce.Do(func() {
		quit := make(chan struct{})
		s.sessionMu.Lock()
		s.quit = quit
		s.sessionMu.Unlock()
		tick := s.SessionTimeout / 4
		if tick <= 0 {
			tick = time.Millisecond
		}
		reaped := s.Obs.Counter("cloud_sessions_reaped_total")
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-quit:
					return
				case <-t.C:
					s.sweep(reaped)
				}
			}
		}()
	})
}

// sweep is one reaper pass over the live sessions.
func (s *Server) sweep(reaped *obs.Counter) {
	s.sessionMu.Lock()
	defer s.sessionMu.Unlock()
	for _, c := range s.sessions {
		if c.reaped {
			continue
		}
		if a := c.activity.Load(); a != c.lastSeen {
			c.lastSeen = a
			c.idle = 0
			continue
		}
		c.idle++
		if c.idle < 4 {
			continue
		}
		c.reaped = true
		reaped.Inc()
		s.Journal.Record("cloud_session_reap", int64(c.lastSeen))
		if s.Logf != nil {
			s.Logf("reaping idle session after %v of silence", s.SessionTimeout)
		}
		// Closing the connection fails the session's blocked read, which
		// unwinds its goroutine; the close error (if any) is irrelevant
		// because the session is being discarded.
		_ = c.Conn.Close()
	}
}

// Addr returns the listener's address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener and the reaper and waits for in-flight
// sessions; every segment admitted by those sessions has been answered
// when it returns. It does not drain the decode farms — close the Service
// or Front after.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	err := s.ln.Close()
	s.sessionMu.Lock()
	if s.quit != nil {
		close(s.quit)
		s.quit = nil
	}
	s.sessionMu.Unlock()
	s.wg.Wait()
	return err
}
