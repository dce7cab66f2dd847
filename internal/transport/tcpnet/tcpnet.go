// Package tcpnet implements the comm.Comm fabric over raw TCP sockets — the
// hand-rolled message-passing substrate standing in for the SP2's MPL/MPI
// layer. Every pair of ranks shares one reliable session carrying
// sequence-numbered frames with a tag header and a CRC-32C checksum; a
// reader goroutine per connection feeds a tag-matching, duplicate-dropping
// mailbox.
//
// Topology: rank i listens on Addrs[i]; every rank j dials every rank i < j
// and binds the connection to the pair's session with a resume handshake
// (magic, rank, epoch, receive high-water mark), so the full mesh needs
// P*(P-1)/2 connections. Dial and handshake are retried with exponential
// backoff until the mesh deadline; a peer that never appears produces a
// rank-attributed error, never a silent hang.
//
// Reliability: the session layer (session.go) masks transient faults below
// the compositor's recovery protocol. Unacknowledged frames wait in a
// bounded replay ring; when a connection breaks — reset, torn frame,
// checksum mismatch, silent link — the higher rank redials, the lower rank
// re-accepts, and the unacked tail is replayed under a fresh session epoch
// while the receiver's dedup window drops anything it already delivered.
// Send/Recv semantics are unchanged through any survivable outage; only an
// outage that exhausts the reconnect budget surfaces, as the same PeerError
// a dead rank produces, handing the problem to the recovery protocol.
//
// One process, many ranks: Run starts a whole loopback mesh — every
// listener bound up front, one goroutine per rank, each endpoint closed
// when its rank returns — the TCP twin of inproc.Run.
package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rtcomp/internal/comm"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/traceid"
	"rtcomp/internal/transport/mbox"
)

// Config describes one rank's view of the cluster.
type Config struct {
	// Rank is this process's rank in [0, len(Addrs)).
	Rank int
	// Addrs lists every rank's listen address, index = rank. The addresses
	// of lower ranks are also the redial targets after a connection loss.
	Addrs []string
	// DialTimeout bounds the whole mesh setup. Zero means 30s.
	DialTimeout time.Duration
	// HandshakeTimeout bounds one connection's handshake exchange, so a
	// silent or stray connection cannot stall the accept loop. Zero means
	// 10s (clamped to the mesh deadline).
	HandshakeTimeout time.Duration
	// DialBackoff is the initial retry backoff after a failed dial or
	// handshake; it doubles per attempt up to 64x. Zero means 10ms.
	DialBackoff time.Duration
	// Session tunes the reliable session layer: replay window size,
	// reconnection budget, heartbeats. The zero value means defaults (see
	// comm.SessionConfig); set MaxReconnects to a negative value to disable
	// reconnection entirely and fail peers on the first break.
	Session comm.SessionConfig
	// Listener, when non-nil, is this rank's already-bound listener, used
	// instead of binding Addrs[Rank] — the race-free path for tests and
	// single-machine runs (see ListenLoopback). Start takes ownership and
	// closes it with the endpoint.
	Listener net.Listener
	// WrapConn, when non-nil, wraps every established connection to the
	// given peer after its handshake completes — the fault-injection seam
	// the chaos tests use (see faulty.WrapConn). Each re-established
	// connection is wrapped anew.
	WrapConn func(peer int, c net.Conn) net.Conn
	// Logf, when non-nil, receives per-peer mesh setup and session progress
	// (dial attempts, handshakes, breaks, resumes, stragglers) — the
	// observable heartbeat that distinguishes a slow peer from a dead one.
	Logf func(format string, args ...any)
	// Telemetry, when non-nil, receives transport counters: dial attempts
	// (including retries and redials), session reconnects, replayed and
	// duplicate-dropped frames, acks, heartbeats, and mid-run peer
	// failures.
	Telemetry *telemetry.Recorder
}

// Endpoint is the TCP-backed communicator endpoint.
type Endpoint struct {
	mbox.Port            // the receive half, over the mailbox the connection readers feed
	sessions  []*session // index = peer rank; nil at own rank
	ln        net.Listener

	addrs       []string
	dialBackoff time.Duration
	hsTimeout   time.Duration
	scfg        comm.SessionConfig
	wrapConn    func(peer int, c net.Conn) net.Conn
	logf        func(format string, args ...any)

	mu     sync.Mutex
	closed bool
}

var _ comm.Comm = (*Endpoint)(nil)

// Start brings up this rank's listener, connects the mesh and returns when
// every peer session has established its first connection.
func Start(cfg Config) (*Endpoint, error) {
	p := len(cfg.Addrs)
	if p < 1 || cfg.Rank < 0 || cfg.Rank >= p {
		if cfg.Listener != nil {
			cfg.Listener.Close()
		}
		return nil, fmt.Errorf("tcpnet: bad config: rank %d of %d", cfg.Rank, p)
	}
	timeout := cfg.DialTimeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	hsTimeout := cfg.HandshakeTimeout
	if hsTimeout == 0 {
		hsTimeout = 10 * time.Second
	}
	if hsTimeout > timeout {
		hsTimeout = timeout
	}
	backoff := cfg.DialBackoff
	if backoff == 0 {
		backoff = 10 * time.Millisecond
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	deadline := time.Now().Add(timeout)

	ep := &Endpoint{
		Port:        mbox.Port{Box: mbox.New(), Me: cfg.Rank, P: p, Tel: cfg.Telemetry},
		sessions:    make([]*session, p),
		addrs:       append([]string(nil), cfg.Addrs...),
		dialBackoff: backoff,
		hsTimeout:   hsTimeout,
		scfg:        cfg.Session.Resolved(),
		wrapConn:    cfg.WrapConn,
		logf:        logf,
	}
	if p == 1 {
		if cfg.Listener != nil {
			cfg.Listener.Close()
		}
		return ep, nil
	}

	ln := cfg.Listener
	if ln == nil {
		// A transiently taken port (the LoopbackAddrs probe gap, a lingering
		// socket from a killed process) gets a short retry budget before the
		// bind failure is reported.
		listenDeadline := time.Now().Add(2 * time.Second)
		if listenDeadline.After(deadline) {
			listenDeadline = deadline
		}
		var err error
		ln, err = listenRetry(cfg.Addrs[cfg.Rank], listenDeadline)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: rank %d listen %s: %w", cfg.Rank, cfg.Addrs[cfg.Rank], err)
		}
	}
	ep.ln = ln
	logf("tcpnet: rank %d listening on %s, waiting for ranks %d..%d", cfg.Rank, ln.Addr(), cfg.Rank+1, p-1)

	for peer := 0; peer < p; peer++ {
		if peer != cfg.Rank {
			ep.sessions[peer] = newSession(ep, peer)
		}
	}

	// The accept loop runs for the endpoint's whole lifetime: it serves both
	// the initial mesh handshakes from higher ranks and any later resume
	// after a connection loss.
	go ep.acceptLoop(ln)

	// Dial lower ranks, retrying dial and handshake with exponential
	// backoff until their listeners are up or the mesh deadline passes.
	for peer := 0; peer < cfg.Rank; peer++ {
		logf("tcpnet: rank %d dialing rank %d at %s", cfg.Rank, peer, cfg.Addrs[peer])
		conn, epoch, peerRecv, attempts, err := dialMesh(cfg.Addrs[peer], cfg.Rank, backoff, hsTimeout, deadline)
		ep.Tel.Add(cfg.Rank, telemetry.CtrDialAttempts, int64(attempts))
		if err != nil {
			ep.Close()
			return nil, fmt.Errorf("tcpnet: rank %d dial rank %d (%s, %d attempts): %w",
				cfg.Rank, peer, cfg.Addrs[peer], attempts, err)
		}
		if !ep.sessions[peer].adopt(conn, epoch, peerRecv) {
			ep.Close()
			return nil, fmt.Errorf("tcpnet: rank %d: session with rank %d closed during setup", cfg.Rank, peer)
		}
		logf("tcpnet: rank %d connected to rank %d after %d attempt(s)", cfg.Rank, peer, attempts)
	}

	// Higher ranks dial us; wait until each session has seen its first
	// connection, naming the stragglers if the deadline passes.
	for peer := cfg.Rank + 1; peer < p; peer++ {
		if !ep.sessions[peer].waitConnected(deadline) {
			missing := ep.missingPeers()
			ep.Close()
			return nil, fmt.Errorf("tcpnet: rank %d timed out after %v waiting for rank(s) %v",
				cfg.Rank, timeout, missing)
		}
	}
	return ep, nil
}

// missingPeers lists the ranks whose session never connected (self
// excluded) — the culprits named by a mesh setup timeout.
func (e *Endpoint) missingPeers() []int {
	var missing []int
	for r, s := range e.sessions {
		if r == e.Me || s == nil {
			continue
		}
		s.mu.Lock()
		connected := s.everConnected
		s.mu.Unlock()
		if !connected {
			missing = append(missing, r)
		}
	}
	return missing
}

// Send implements comm.Comm. The payload is copied into the session's
// replay ring and is not retained after Send returns; delivery is reliable
// across any outage the session survives. Send blocks while the replay
// window is full and only fails once the peer's session has terminally
// failed (a PeerError) or the endpoint is closed.
func (e *Endpoint) Send(to, tag int, payload []byte) error {
	return e.SendCtx(to, tag, payload, traceid.Context{Step: -1, Tile: -1})
}

// SendCtx implements comm.CtxSender: the frame carries the trace context on
// the wire, so the receiving rank can stitch the cross-process flow; with
// telemetry disabled none is carried and the frame is identical to a
// pre-trace send apart from the reserved header field.
func (e *Endpoint) SendCtx(to, tag int, payload []byte, tc traceid.Context) error {
	if to < 0 || to >= e.P || to == e.Me {
		return fmt.Errorf("tcpnet: invalid destination rank %d", to)
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("tcpnet: payload of %d bytes exceeds frame limit", len(payload))
	}
	s := e.sessions[to]
	if s == nil {
		return fmt.Errorf("tcpnet: no session with rank %d", to)
	}
	if err := s.send(tag, payload, e.StartSend(to, tc)); err != nil {
		return err
	}
	e.Sent(len(payload))
	return nil
}

// isClosed reports whether teardown has begun, so late connection errors
// from our own teardown are not misattributed to peers.
func (e *Endpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Close implements comm.Comm: a clean shutdown. Each live session sends a
// bye frame first so peers treat the departure as end-of-run traffic
// instead of an outage to reconnect through.
func (e *Endpoint) Close() error {
	e.shutdown(true)
	return nil
}

// Kill tears the endpoint down abruptly — no bye frames, connections
// simply die — simulating a process crash for the fault-tolerance tests.
// Peers observe broken connections, attempt to resume, exhaust their
// reconnect budget and fail this rank with a PeerError, exactly the
// sequence a real crash produces.
func (e *Endpoint) Kill() {
	e.shutdown(false)
}

func (e *Endpoint) shutdown(sendBye bool) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	if sendBye {
		// Graceful close drains every session first: frames the peers have
		// not yet acked are still in flight, and closing sockets under them
		// can RST the stream and destroy them. The listener stays open so
		// an acceptor-side resume can finish a drain mid-outage.
		deadline := time.Now().Add(e.scfg.WriteTimeout)
		var wg sync.WaitGroup
		for _, s := range e.sessions {
			if s == nil {
				continue
			}
			wg.Add(1)
			go func(s *session) {
				defer wg.Done()
				s.drain(deadline)
			}(s)
		}
		wg.Wait()
	}
	if e.ln != nil {
		e.ln.Close()
	}
	for _, s := range e.sessions {
		if s != nil {
			s.close(sendBye)
		}
	}
	e.Box.Close(nil)
}

// CutConn severs the live connection to one peer — without touching the
// session state — so the next read or write on it fails and the session
// layer's resume machinery takes over. This is the chaos-testing seam: a
// cut is exactly what a mid-run network fault looks like. It reports
// whether there was a live connection to cut.
func (e *Endpoint) CutConn(peer int) bool {
	if peer < 0 || peer >= e.P || peer == e.Me {
		return false
	}
	s := e.sessions[peer]
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stActive || s.conn == nil {
		return false
	}
	s.conn.Close()
	return true
}

// Run starts a p-rank mesh on loopback in this process — the TCP twin of
// inproc.Run. It binds every listener up front (ListenLoopback), starts rank
// r with a copy of cfg whose Rank, Addrs and Listener it fills in, runs fn on
// that rank's goroutine, and closes the endpoint when fn returns: a rank that
// returns early departs with a bye, exactly as a process that exits does. It
// waits for every rank and returns the joined errors; a mesh-setup error
// names its rank.
func Run(p int, cfg Config, fn func(ep *Endpoint) error) error {
	lns, addrs, err := ListenLoopback(p)
	if err != nil {
		return err
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rc := cfg
			rc.Rank, rc.Addrs, rc.Listener = r, addrs, lns[r]
			ep, err := Start(rc)
			if err != nil {
				errs[r] = fmt.Errorf("tcpnet: rank %d mesh setup: %w", r, err)
				return
			}
			defer ep.Close()
			errs[r] = fn(ep)
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// LoopbackAddrs returns p distinct loopback addresses with OS-assigned
// ports, for single-machine multi-endpoint tests: it binds p listeners on
// port 0, records the addresses, and closes them. There is a small window
// in which another process can take a probed port before the real listener
// binds — Start rides it out with a brief bind retry, but the race-free
// path is ListenLoopback + Config.Listener, which never releases the ports
// at all.
func LoopbackAddrs(p int) ([]string, error) {
	addrs := make([]string, p)
	lns := make([]net.Listener, p)
	for i := 0; i < p; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}
