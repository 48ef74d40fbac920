package netfault

import (
	"net"
	"sync"
	"sync/atomic"
)

// Listener wraps a net.Listener with server-side fault injection:
// accepted connections can be reset immediately (the client sees a
// refused/reset connection even though the server is up), and Cut
// tears down every live connection and resets all new ones until
// Restore — the coordinator-side half of a partition.
//
// Only PRefuse from the Plan applies at this layer; finer-grained
// faults (truncation, duplicates) live in Transport where the request
// boundary is visible.
type Listener struct {
	net.Listener
	state *faultState
	cut   atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// WrapListener wraps ln with plan.
func WrapListener(ln net.Listener, plan Plan) *Listener {
	return &Listener{Listener: ln, state: newFaultState(plan), conns: make(map[net.Conn]struct{})}
}

// Cut resets every live connection and all future ones until Restore.
func (l *Listener) Cut() {
	l.cut.Store(true)
	l.mu.Lock()
	live := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		live = append(live, c)
	}
	l.mu.Unlock()
	// Close outside the lock: a trackedConn's Close takes it to
	// deregister itself.
	for _, c := range live {
		c.Close()
	}
}

// Restore ends an explicit Cut; the probabilistic plan still applies.
func (l *Listener) Restore() { l.cut.Store(false) }

// Counters returns a copy of the per-class injection counts.
func (l *Listener) Counters() map[string]int64 {
	_, c := l.state.snapshot()
	return c
}

// CountersString renders the counters sorted by class, for logs.
func (l *Listener) CountersString() string { return formatCounters(l.Counters()) }

func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		plan, _ := l.state.snapshot()
		if l.cut.Load() {
			l.state.count("cut")
			c.Close()
			continue
		}
		if l.state.roll(plan.PRefuse, "accept-reset") {
			c.Close()
			continue
		}
		tc := &trackedConn{Conn: c, ln: l}
		l.mu.Lock()
		l.conns[tc] = struct{}{}
		l.mu.Unlock()
		return tc, nil
	}
}

// trackedConn deregisters itself on Close so Cut only tears down live
// connections.
type trackedConn struct {
	net.Conn
	ln   *Listener
	once sync.Once
}

func (c *trackedConn) Close() error {
	c.once.Do(func() {
		c.ln.mu.Lock()
		delete(c.ln.conns, c)
		c.ln.mu.Unlock()
	})
	return c.Conn.Close()
}
