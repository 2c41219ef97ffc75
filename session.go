package livo

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// endpoint is what a SendSession and a RecvSession share: the socket and
// its peer, the session clock, and the goroutines that run until Close.
type endpoint struct {
	conn       net.PacketConn
	remote     net.Addr
	start      time.Time
	closed     chan struct{}
	closeOnce  sync.Once
	wg         sync.WaitGroup
	err        atomic.Value
	unregister func() // removes the session's series (DESIGN.md §6)
}

func newEndpoint(conn net.PacketConn, remote net.Addr) endpoint {
	return endpoint{conn: conn, remote: remote, start: time.Now(), closed: make(chan struct{})}
}

// now returns seconds since session start.
func (e *endpoint) now() float64 { return time.Since(e.start).Seconds() }

// readFailed classifies an error from a blocking read of the socket. Reads
// poll no deadline: Close closes e.closed first and then pokes a past read
// deadline, so that error is teardown. Other timeouts are retried; anything
// else becomes the session's error. It reports whether the loop must end.
func (e *endpoint) readFailed(err error, what string) bool {
	select {
	case <-e.closed:
		return true
	default:
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return false
	}
	e.err.Store(fmt.Errorf("livo: %s: %w", what, err))
	return true
}

// Err returns the first asynchronous error hit by the session's goroutines
// (a socket read, or a SendSession's pacer write), or nil while healthy.
// Once non-nil the session is dead: SendViews returns the same error and no
// further packets leave a SendSession; a RecvSession's Run has returned and
// no further frames will be delivered.
func (e *endpoint) Err() error {
	if err := e.err.Load(); err != nil {
		return err.(error)
	}
	return nil
}

// Close stops the session and waits for its goroutines. The connection is
// not closed: the caller owns it (a conference shares one socket between
// send and receive sessions on separate ports in the examples). Frames still
// queued for a SendSession's pacer are not sent, and SendViews after Close
// returns an error. Close is idempotent.
func (e *endpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.closed)
		_ = e.conn.SetReadDeadline(time.Now())
		e.wg.Wait()
		e.unregister()
	})
	return nil
}
