package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/comm"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/traceid"
)

// sessState is a session's lifecycle position. A session starts connecting
// (mesh setup), spends its life active, dips into reconnecting across
// transient outages, and terminates exactly once: failed (the peer is
// poisoned and the recovery protocol takes over) or closed (local
// teardown).
type sessState int

const (
	stConnecting   sessState = iota // awaiting the first connection
	stActive                        // live connection, frames flowing
	stReconnecting                  // connection lost, resume in progress
	stFailed                        // gave up: peer poisoned via PeerError
	stClosed                        // local endpoint shut the session down
)

// unacked is one data frame pinned in the replay ring until the peer's
// cumulative ack covers it. The payload is a pooled copy owned by the
// session (returned to bufpool on ack, failure or close). The trace
// context travels with the entry so a replayed frame carries its original
// causal identity; sent timestamps the first transmission attempt and
// feeds the session RTT histogram when the ack lands.
type unacked struct {
	seq     uint64
	tag     int64
	payload []byte
	tc      traceid.Context
	sent    time.Time
}

// session is the reliable delivery layer for one peer: it numbers outgoing
// data frames, keeps them in a bounded ring until acknowledged, and — when
// the connection breaks for any reason (reset, CRC mismatch, partial
// write, idle link) — transparently re-establishes it under the resume
// handshake and replays the unacknowledged tail. The compositor above sees
// unchanged Send/Recv semantics; only an outage that exhausts the
// reconnect budget surfaces, as the same PeerError a dead rank produces.
type session struct {
	e      *Endpoint
	peer   int
	dialer bool // we redial on outage (peer rank below ours); else we re-accept
	cfg    comm.SessionConfig

	mu   sync.Mutex
	cond *sync.Cond

	state           sessState
	conn            net.Conn
	epoch           uint32 // current session epoch; bumped by every resume
	everConnected   bool
	reconnectActive bool // a redial/await goroutine owns the outage
	failErr         error

	nextSeq   uint64    // last data seq assigned (first frame is 1)
	ring      []unacked // unacked data frames, ascending seq
	acked     uint64    // highest of our seqs the peer has acknowledged
	recvSeq   uint64    // highest data seq accepted from the peer
	lastWrite time.Time // feeds the idle-heartbeat decision

	hdr [frameHeader]byte // frame-header scratch, guarded by mu
	vec [2][]byte         // net.Buffers backing for vectored writes

	rtt *telemetry.Histogram // data-frame send -> cumulative ack; nil without telemetry
}

func newSession(e *Endpoint, peer int) *session {
	s := &session{
		e:      e,
		peer:   peer,
		dialer: peer < e.Me,
		cfg:    e.scfg,
		state:  stConnecting,
		rtt:    e.Tel.Hist(e.Me, telemetry.HistSessionRTT),
	}
	s.cond = sync.NewCond(&s.mu)
	if s.cfg.HeartbeatsEnabled() {
		go s.heartbeatLoop()
	}
	return s
}

// send queues one data frame: it pins a pooled copy of the payload in the
// replay ring (blocking while the window is full) and, when a connection
// is up, writes it out. During an outage the frame simply waits in the
// ring — the resume replay delivers it — so a transient break never
// surfaces to the caller. Only a failed or closed session returns an
// error.
func (s *session) send(tag int, payload []byte, tc traceid.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.state != stFailed && s.state != stClosed && len(s.ring) >= s.cfg.WindowFrames {
		s.cond.Wait()
	}
	switch s.state {
	case stClosed:
		return fmt.Errorf("tcpnet: endpoint closed")
	case stFailed:
		return &comm.PeerError{Rank: s.peer, Err: s.failErr}
	}
	s.nextSeq++
	buf := bufpool.Get(len(payload))
	copy(buf, payload)
	s.ring = append(s.ring, unacked{seq: s.nextSeq, tag: int64(tag), payload: buf, tc: tc, sent: time.Now()})
	if s.state == stActive {
		// A write failure resets the connection and leaves the frame ringed
		// for replay; the caller still sees success.
		s.writeFrameLocked(ftData, s.nextSeq, int64(tag), buf, tc)
	}
	return nil
}

// writeFrameLocked writes one frame — header plus optional payload — to
// the current connection under a write deadline, piggybacking the
// cumulative ack. Any error (including a short write, which leaves an
// unrecoverable torn frame on the stream) resets the connection; the
// session never keeps writing to a stream in an unknown state.
func (s *session) writeFrameLocked(typ byte, seq uint64, tag int64, payload []byte, tc traceid.Context) error {
	c := s.conn
	encodeFrameHeaderCtx(s.hdr[:], typ, s.epoch, seq, s.recvSeq, tag, payload, tc)
	c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	var err error
	if len(payload) == 0 {
		_, err = c.Write(s.hdr[:])
	} else {
		s.vec[0], s.vec[1] = s.hdr[:], payload
		bufs := net.Buffers(s.vec[:])
		_, err = bufs.WriteTo(c)
		s.vec[0], s.vec[1] = nil, nil // drop the payload reference
	}
	if err != nil {
		s.resetLocked(fmt.Errorf("tcpnet: write to rank %d: %w", s.peer, err))
		return err
	}
	c.SetWriteDeadline(time.Time{})
	s.lastWrite = time.Now()
	return nil
}

// ackLocked advances the cumulative ack from the peer, releasing every
// ring entry it covers and waking senders blocked on the window.
func (s *session) ackLocked(ack uint64) {
	if ack <= s.acked {
		return
	}
	s.acked = ack
	n := 0
	for n < len(s.ring) && s.ring[n].seq <= ack {
		if s.rtt != nil && !s.ring[n].sent.IsZero() {
			s.rtt.Observe(time.Since(s.ring[n].sent))
		}
		bufpool.Put(s.ring[n].payload)
		n++
	}
	if n > 0 {
		rest := copy(s.ring, s.ring[n:])
		for i := rest; i < len(s.ring); i++ {
			s.ring[i] = unacked{}
		}
		s.ring = s.ring[:rest]
	}
	s.cond.Broadcast()
}

// processAck folds a frame's piggybacked cumulative ack into the ring.
// Acks are monotonic, so one arriving via a stale connection is harmless.
func (s *session) processAck(ack uint64) {
	if ack == 0 {
		return
	}
	s.mu.Lock()
	s.ackLocked(ack)
	s.mu.Unlock()
}

// noteRecvAndAck records a received data seq and writes a standalone
// cumulative ack so the sender can prune its replay ring even when no
// reverse data traffic piggybacks one. Duplicates re-ack too — the
// original ack may be what the outage swallowed.
func (s *session) noteRecvAndAck(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq > s.recvSeq {
		s.recvSeq = seq
	}
	if s.state != stActive || s.conn == nil {
		return
	}
	if s.writeFrameLocked(ftAck, 0, 0, nil, traceid.Context{}) == nil {
		s.e.Tel.Add(s.e.Me, telemetry.CtrAcksSent, 1)
	}
}

// connBroken is the read loop's failure report. A connection that has
// already been superseded (resume won the race) or belongs to our own
// teardown is ignored; a live one is reset and reconnection begins.
func (s *session) connBroken(c net.Conn, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != c || s.state != stActive {
		return
	}
	if s.e.isClosed() {
		return
	}
	s.e.logf("tcpnet: rank %d connection to rank %d broke: %v", s.e.Me, s.peer, cause)
	s.resetLocked(cause)
}

// resetLocked tears down the current connection and starts the resume
// machinery (reconnect). With reconnection disabled (MaxReconnects < 0)
// or during endpoint teardown it fails the peer immediately — the
// pre-session behaviour.
func (s *session) resetLocked(cause error) {
	if s.state != stActive {
		return
	}
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	if !s.cfg.ReconnectEnabled() || s.e.isClosed() {
		s.failLocked(cause, true)
		return
	}
	s.state = stReconnecting
	if !s.reconnectActive {
		s.reconnectActive = true
		go s.reconnect(cause)
	}
}

// reconnect owns one outage: the dialing side redials within the reconnect
// budget, the accepting side waits to be redialled. A session still
// reconnecting when its side gives up fails the peer.
func (s *session) reconnect(cause error) {
	deadline := time.Now().Add(s.cfg.ReconnectTimeout)
	if s.dialer {
		_, err := s.dial(deadline, s.cfg.MaxReconnects)
		if err == nil {
			return
		}
		cause = fmt.Errorf("tcpnet: could not resume session with rank %d within %v/%d attempt(s): %w",
			s.peer, s.cfg.ReconnectTimeout, s.cfg.MaxReconnects, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dialer {
		s.waitLocked(deadline, func() bool { return s.state != stReconnecting })
		cause = fmt.Errorf("tcpnet: no resume from rank %d within %v: %w", s.peer, s.cfg.ReconnectTimeout, cause)
	}
	s.reconnectActive = false
	if s.state == stReconnecting {
		s.failLocked(cause, true)
	}
}

// dial connects the session from the dialing side — its first connection,
// a resume from epoch 0 within the mesh deadline and no attempt cap (budget
// 0), and every reconnection after an outage. Each attempt proposes a
// strictly higher epoch (epoch + attempt, so a half-completed earlier
// attempt the acceptor already adopted can never wedge the proposal
// sequence) and failures back off exponentially. It returns how many dials
// it made and, if no handshake completed, the last error.
func (s *session) dial(deadline time.Time, budget int) (int, error) {
	e := s.e
	err := errors.New("tcpnet: dial deadline exceeded")
	backoff := dialBackoff
	n := 0
	for ; (budget == 0 || n < budget) && time.Now().Before(deadline); n++ {
		s.mu.Lock()
		live := s.state == stConnecting || s.state == stReconnecting
		first := !s.everConnected
		proposal, recvSeq := s.epoch+uint32(n+1), s.recvSeq
		s.mu.Unlock()
		if !live {
			return n, fmt.Errorf("tcpnet: session with rank %d closed", s.peer)
		}
		c, epoch, peerRecv, dialErr := dialResume(e.addrs[s.peer], e.Me, proposal, recvSeq, deadline)
		e.Tel.Add(e.Me, telemetry.CtrDialAttempts, 1)
		if dialErr != nil {
			err = dialErr
			time.Sleep(min(backoff, time.Until(deadline)))
			backoff = min(2*backoff, 64*dialBackoff)
			continue
		}
		switch {
		case !s.adopt(c, epoch, peerRecv):
		case first:
			e.logf("tcpnet: rank %d connected to rank %d after %d attempt(s)", e.Me, s.peer, n+1)
		default:
			e.logf("tcpnet: rank %d resumed session with rank %d (epoch %d, attempt %d)", e.Me, s.peer, epoch, n+1)
		}
		return n + 1, nil
	}
	return n, err
}

// waitLocked blocks on the session's condition until done reports true or
// the deadline passes. Called with mu held; a timer broadcasts at the
// deadline so the last check cannot be missed.
func (s *session) waitLocked(deadline time.Time, done func() bool) {
	t := time.AfterFunc(time.Until(deadline), func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer t.Stop()
	for !done() && time.Now().Before(deadline) {
		s.cond.Wait()
	}
}

// resume is the acceptor-side handshake completion: validate the epoch
// proposal (strictly increasing, so stale or duplicate resumes die here),
// tell the dialer how far we have received, and adopt the connection.
func (s *session) resume(c net.Conn, epoch uint32, peerRecvSeq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == stClosed || s.state == stFailed || epoch <= s.epoch {
		c.Close()
		return
	}
	reply := encodeResumeReply(epoch, s.recvSeq)
	c.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	if _, err := c.Write(reply[:]); err != nil {
		c.Close()
		return
	}
	c.SetWriteDeadline(time.Time{})
	first := !s.everConnected
	if s.adoptLocked(c, epoch, peerRecvSeq) {
		if first {
			s.e.logf("tcpnet: rank %d accepted rank %d", s.e.Me, s.peer)
		} else {
			s.e.logf("tcpnet: rank %d re-accepted rank %d (epoch %d)", s.e.Me, s.peer, epoch)
		}
	}
}

// adopt binds a freshly handshaken connection to the session from the
// dialing side.
func (s *session) adopt(c net.Conn, epoch uint32, peerRecvSeq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adoptLocked(c, epoch, peerRecvSeq)
}

// adoptLocked installs a connection: prune the ring to the peer's receive
// high-water mark, replay the unacknowledged tail in order, and hand the
// connection to a fresh read loop. The replay happens under the session
// lock so no new Send can interleave a higher seq mid-replay.
func (s *session) adoptLocked(c net.Conn, epoch uint32, peerRecvSeq uint64) bool {
	if s.state == stClosed || s.state == stFailed {
		c.Close()
		return false
	}
	if s.e.wrapConn != nil {
		c = s.e.wrapConn(s.peer, c)
	}
	if s.conn != nil {
		s.conn.Close() // superseded; its read loop's error report is ignored
	}
	resumed := s.everConnected
	s.conn = c
	s.epoch = epoch
	s.everConnected = true
	s.state = stActive
	s.reconnectActive = false
	s.lastWrite = time.Now()
	s.ackLocked(peerRecvSeq) // the peer already holds these frames
	if resumed {
		s.e.Tel.Add(s.e.Me, telemetry.CtrReconnects, 1)
		s.e.Tel.Flight(s.e.Me, telemetry.FlightReconnect, telemetry.StepNone, -1, s.peer, "session resumed")
	}
	replayed := 0
	for i := 0; i < len(s.ring) && s.state == stActive; i++ {
		u := s.ring[i]
		if s.writeFrameLocked(ftData, u.seq, u.tag, u.payload, u.tc) != nil {
			break // the write reset the session; the next resume replays
		}
		replayed++
	}
	if replayed > 0 {
		s.e.Tel.Add(s.e.Me, telemetry.CtrReplayedFrames, int64(replayed))
	}
	s.cond.Broadcast()
	if s.state != stActive {
		return false
	}
	go s.e.readLoop(s, c, epoch)
	return true
}

// failLocked terminates the session: the peer is poisoned in the mailbox
// with a PeerError (the signal the degradation policies and the recovery
// protocol key on), ring buffers are recycled, and blocked senders wake.
// abnormal distinguishes a mid-run fault (counted) from a clean departure.
func (s *session) failLocked(cause error, abnormal bool) {
	if s.state == stClosed || s.state == stFailed {
		return
	}
	s.state = stFailed
	s.failErr = cause
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.freeRingLocked()
	s.cond.Broadcast()
	if abnormal && !s.e.isClosed() {
		s.e.Tel.Add(s.e.Me, telemetry.CtrPeerFailures, 1)
		s.e.Tel.Flight(s.e.Me, telemetry.FlightSessionDown, telemetry.StepNone, -1, s.peer, "session failed")
	}
	s.e.Box.Fail(s.peer, &comm.PeerError{Rank: s.peer, Err: cause})
}

// depart handles a bye frame: the peer is closing cleanly, so pending
// receives from it fail with a PeerError but nothing reconnects and no
// mid-run failure is counted — ordinary end-of-run traffic.
func (s *session) depart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failLocked(fmt.Errorf("tcpnet: rank %d departed (closed its endpoint)", s.peer), false)
}

// heartbeatLoop keeps an idle link observably alive: when nothing has been
// written for an interval, a heartbeat frame goes out. The peer's read-idle
// deadline then distinguishes a silently dropped link (no frames at all)
// from a healthy-but-quiet one, and the heartbeat's piggybacked ack keeps
// replay rings pruned during one-directional traffic.
func (s *session) heartbeatLoop() {
	ticker := time.NewTicker(s.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for range ticker.C {
		s.mu.Lock()
		if s.state == stClosed || s.state == stFailed {
			s.mu.Unlock()
			return
		}
		if s.state == stActive && time.Since(s.lastWrite) >= s.cfg.HeartbeatInterval {
			if s.writeFrameLocked(ftHeartbeat, 0, 0, nil, traceid.Context{}) == nil {
				s.e.Tel.Add(s.e.Me, telemetry.CtrHeartbeats, 1)
			}
		}
		s.mu.Unlock()
	}
}

// close shuts the session down locally. sendBye distinguishes a clean
// Close (the peer is told not to reconnect) from an injected crash (Kill),
// where the peer must discover the death through the failure path.
func (s *session) close(sendBye bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == stClosed {
		return
	}
	prev := s.state
	s.state = stClosed
	if sendBye && prev == stActive && s.conn != nil {
		encodeFrameHeader(s.hdr[:], ftBye, s.epoch, 0, s.recvSeq, 0, nil)
		s.conn.SetWriteDeadline(time.Now().Add(time.Second))
		s.conn.Write(s.hdr[:]) // best effort; the close below is the fallback signal
	}
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	s.freeRingLocked()
	s.cond.Broadcast()
}

// freeRingLocked recycles every pinned replay payload.
func (s *session) freeRingLocked() {
	for i := range s.ring {
		bufpool.Put(s.ring[i].payload)
		s.ring[i] = unacked{}
	}
	s.ring = s.ring[:0]
}

// connected waits until the session has seen its first connection,
// terminated, or the deadline passed; it reports whether the session ever
// connected.
func (s *session) connected(deadline time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitLocked(deadline, func() bool { return s.everConnected || s.state == stClosed || s.state == stFailed })
	return s.everConnected
}
