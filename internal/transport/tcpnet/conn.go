package tcpnet

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/transport/mbox"
)

// readLoop drains one connection of one session epoch: parse frames, verify
// checksums, fold piggybacked acks into the replay ring, and hand data
// payloads to the mailbox through the dedup window. Any stream anomaly —
// read error, torn frame, bad header, CRC mismatch, epoch confusion, idle
// link past the heartbeat budget — is reported to the session, which
// decides between transparent resume and peer failure. The loop exits when
// its connection is superseded, broken, or the peer departs.
func (e *Endpoint) readLoop(s *session, c net.Conn, epoch uint32) {
	idle := time.Duration(0)
	if s.cfg.HeartbeatsEnabled() && s.cfg.ReadIdleTimeout > 0 {
		idle = s.cfg.ReadIdleTimeout
	}
	var hdr [frameHeader]byte
	for {
		if idle > 0 {
			c.SetReadDeadline(time.Now().Add(idle))
		}
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			s.connBroken(c, fmt.Errorf("tcpnet: read from rank %d: %w", s.peer, err))
			return
		}
		fi, err := parseFrameHeader(hdr[:])
		if err != nil {
			s.connBroken(c, fmt.Errorf("tcpnet: bad frame from rank %d: %w", s.peer, err))
			return
		}
		if fi.epoch != epoch {
			s.connBroken(c, fmt.Errorf("tcpnet: frame epoch %d from rank %d on connection of epoch %d",
				fi.epoch, s.peer, epoch))
			return
		}
		payload := bufpool.Get(int(fi.n))
		if fi.n > 0 {
			if idle > 0 {
				c.SetReadDeadline(time.Now().Add(idle))
			}
			if _, err := io.ReadFull(c, payload); err != nil {
				bufpool.Put(payload)
				s.connBroken(c, fmt.Errorf("tcpnet: read from rank %d: %w", s.peer, err))
				return
			}
		}
		if got := crc32.Update(fi.headerCRC, crcTable, payload); got != fi.wantCRC {
			bufpool.Put(payload)
			e.Tel.Add(e.Me, telemetry.CtrCRCRejects, 1)
			s.connBroken(c, fmt.Errorf("tcpnet: frame from rank %d failed checksum (tag %d, %d bytes): got %08x want %08x",
				s.peer, fi.tag, fi.n, got, fi.wantCRC))
			return
		}
		s.processAck(fi.ack)
		switch fi.typ {
		case ftData:
			// The trace context rides into the mailbox with the message; the
			// receive side of the flow is recorded at the comm boundary when
			// a Recv consumes it, so duplicate-dropped replays (below) never
			// produce a phantom flow edge.
			accepted, err := e.Box.PutSeq(mbox.Message{From: s.peer, Tag: int(fi.tag), Payload: payload, Trace: fi.tc}, fi.seq)
			if err != nil {
				bufpool.Put(payload)
				return // mailbox closed: endpoint teardown
			}
			if !accepted {
				// A replayed frame the dedup window already delivered. Drop it
				// but still re-ack below — the original ack may be exactly
				// what the outage swallowed.
				bufpool.Put(payload)
				e.Tel.Add(e.Me, telemetry.CtrDupFramesDropped, 1)
			}
			s.noteRecvAndAck(fi.seq)
		case ftAck, ftHeartbeat:
			bufpool.Put(payload) // header-only; the piggybacked ack above was the message
		case ftBye:
			bufpool.Put(payload)
			s.depart()
			return
		}
	}
}

// acceptLoop accepts inbound connections for the endpoint's whole lifetime
// — mesh setup and any later resume — handing each to its own handshake
// goroutine so one slow or garbage dialer cannot block a legitimate peer.
// It exits when the listener closes.
func (e *Endpoint) acceptLoop(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go e.handleInbound(c)
	}
}

// handleInbound runs the acceptor side of the resume handshake on one
// inbound connection. Connections that present bad magic, an out-of-range
// rank, or a rank that should be accepting us instead are rejected without
// consuming any session state.
func (e *Endpoint) handleInbound(c net.Conn) {
	rank, epoch, recvSeq, err := readHello(c, e.P)
	if err != nil {
		e.logf("tcpnet: rank %d rejected connection from %s: %v", e.Me, c.RemoteAddr(), err)
		c.Close()
		return
	}
	if rank <= e.Me {
		e.logf("tcpnet: rank %d rejected hello from rank %d (not a dialing rank)", e.Me, rank)
		c.Close()
		return
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	e.sessions[rank].resume(c, epoch, recvSeq)
}

// readHello reads and validates the dialer's resume hello under the
// handshake deadline.
func readHello(c net.Conn, p int) (rank int, epoch uint32, recvSeq uint64, err error) {
	c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	defer c.SetReadDeadline(time.Time{})
	var b [helloLen]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("hello read: %w", err)
	}
	return parseHello(b[:], p)
}

// dialResume opens one connection to a peer and runs the dialer side of the
// resume handshake: send the hello proposing an epoch, read back the
// adopted epoch and the peer's receive high-water mark. The overall
// deadline bounds the dial; the handshake itself gets at most
// handshakeTimeout.
func dialResume(addr string, rank int, epoch uint32, recvSeq uint64, deadline time.Time) (net.Conn, uint32, uint64, error) {
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return nil, 0, 0, errors.New("tcpnet: dial deadline exceeded")
	}
	c, err := net.DialTimeout("tcp", addr, remaining)
	if err != nil {
		return nil, 0, 0, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	hsDeadline := time.Now().Add(handshakeTimeout)
	if hsDeadline.After(deadline) {
		hsDeadline = deadline
	}
	c.SetDeadline(hsDeadline)
	hello := encodeHello(rank, epoch, recvSeq)
	if _, err := c.Write(hello[:]); err != nil {
		c.Close()
		return nil, 0, 0, fmt.Errorf("hello write: %w", err)
	}
	var reply [replyLen]byte
	if _, err := io.ReadFull(c, reply[:]); err != nil {
		c.Close()
		return nil, 0, 0, fmt.Errorf("resume reply: %w", err)
	}
	c.SetDeadline(time.Time{})
	gotEpoch, peerRecv, err := parseResumeReply(reply[:])
	if err != nil {
		c.Close()
		return nil, 0, 0, err
	}
	if gotEpoch != epoch {
		c.Close()
		return nil, 0, 0, fmt.Errorf("tcpnet: resume reply confirms epoch %d, proposed %d", gotEpoch, epoch)
	}
	return c, gotEpoch, peerRecv, nil
}

// listenRetry binds addr, retrying briefly with backoff when the port is
// transiently taken — the gap between a port-0 probe (LoopbackAddrs) and
// the real bind, or a lingering socket from a just-killed process.
func listenRetry(addr string, deadline time.Time) (net.Listener, error) {
	backoff := 10 * time.Millisecond
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// ListenLoopback binds p loopback listeners on kernel-assigned ports and
// returns them alongside their addresses. Unlike LoopbackAddrs, the ports
// are never released between discovery and use — hand each listener to
// Start via Config.Listener and the bind race disappears entirely. On
// error, every already-bound listener is closed.
func ListenLoopback(p int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, 0, p)
	addrs := make([]string, 0, p)
	for i := 0; i < p; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, nil, fmt.Errorf("tcpnet: loopback listen %d/%d: %w", i, p, err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return lns, addrs, nil
}
