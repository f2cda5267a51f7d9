package resilience

import (
	"io"
	"time"
)

// deadliner is the subset of net.Conn both ends of the backhaul need for
// arming I/O deadlines. *net.TCPConn and net.Pipe conns satisfy it.
type deadliner interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// wallNow is the one place this package reads the wall clock. Socket
// deadlines are inherently real-time: they bound how long a blocked Read
// or Write may wait on the kernel, which no simulated clock can stand in
// for. Everything else in the resilience layer stays deterministic.
//
//lint:ignore nondeterminism socket deadlines must be armed against the real clock
func wallNow() time.Time { return time.Now() }

// deadlineRW arms a fresh deadline before every Read/Write on the wrapped
// stream. A zero timeout disables that direction.
type deadlineRW struct {
	rw    io.ReadWriter
	d     deadliner
	read  time.Duration
	write time.Duration
}

// WithDeadlines wraps rw so every Read is preceded by SetReadDeadline(now+read)
// and every Write by SetWriteDeadline(now+write). If rw does not support
// deadlines (e.g. an in-memory buffer in tests) or both timeouts are zero,
// rw is returned unchanged. This is how both backhaul ends guarantee a
// dead peer surfaces as a timeout error instead of a forever-blocked
// goroutine: the gateway wraps its dialed conn, the cloud wraps each
// accepted session conn.
func WithDeadlines(rw io.ReadWriter, read, write time.Duration) io.ReadWriter {
	d, ok := rw.(deadliner)
	if !ok || (read <= 0 && write <= 0) {
		return rw
	}
	return &deadlineRW{rw: rw, d: d, read: read, write: write}
}

func (c *deadlineRW) Read(p []byte) (int, error) {
	if c.read > 0 {
		if err := c.d.SetReadDeadline(wallNow().Add(c.read)); err != nil {
			return 0, err
		}
	}
	return c.rw.Read(p)
}

func (c *deadlineRW) Write(p []byte) (int, error) {
	if c.write > 0 {
		if err := c.d.SetWriteDeadline(wallNow().Add(c.write)); err != nil {
			return 0, err
		}
	}
	return c.rw.Write(p)
}
