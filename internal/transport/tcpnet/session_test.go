package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtcomp/internal/comm"
	"rtcomp/internal/telemetry"
	"rtcomp/internal/transport/faulty"
)

// startPair brings up a 2-rank mesh over pre-bound loopback listeners,
// applying mod (if non-nil) to each rank's config before Start.
func startPair(t *testing.T, mod func(rank int, cfg *Config)) [2]*Endpoint {
	t.Helper()
	lns, addrs, err := ListenLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	var eps [2]*Endpoint
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := Config{Rank: r, Addrs: addrs, Listener: lns[r], DialTimeout: 10 * time.Second}
			if mod != nil {
				mod(r, &cfg)
			}
			eps[r], errs[r] = Start(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return eps
}

func TestSessionResumesAfterCut(t *testing.T) {
	// Severing the live connection mid-run — from either side — must be
	// invisible to Send/Recv: the session resumes, replays the unacked
	// tail, and every message arrives exactly once, in order.
	rec := telemetry.New()
	eps := startPair(t, func(rank int, cfg *Config) {
		cfg.Telemetry = rec
	})
	defer eps[0].Close()
	defer eps[1].Close()

	cuts := 0
	for i := 0; i < 30; i++ {
		payload := []byte(fmt.Sprintf("msg-%d", i))
		if err := eps[0].Send(1, i, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if err := eps[1].Send(0, 1000+i, payload); err != nil {
			t.Fatalf("reverse send %d: %v", i, err)
		}
		// Alternate which side performs the cut so both the redial and the
		// re-accept paths are exercised.
		if i%5 == 2 {
			var cut bool
			if i%2 == 0 {
				cut = eps[1].CutConn(0) // dialer side cuts
			} else {
				cut = eps[0].CutConn(1) // acceptor side cuts
			}
			if cut {
				cuts++
			}
		}
		_, _, got, err := eps[1].RecvAny([]comm.MsgKey{{From: 0, Tag: i}}, time.Now().Add(10*time.Second))
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if string(got) != string(payload) {
			t.Fatalf("recv %d: got %q want %q", i, got, payload)
		}
		_, _, got, err = eps[0].RecvAny([]comm.MsgKey{{From: 1, Tag: 1000 + i}}, time.Now().Add(10*time.Second))
		if err != nil {
			t.Fatalf("reverse recv %d: %v", i, err)
		}
		if string(got) != string(payload) {
			t.Fatalf("reverse recv %d: got %q want %q", i, got, payload)
		}
	}
	if cuts == 0 {
		t.Fatal("no live connection was ever cut; the test exercised nothing")
	}
	ctr := rec.Counters()
	rc := ctr[telemetry.CounterKey{Rank: 0, Step: telemetry.StepNone, Name: telemetry.CtrReconnects}] +
		ctr[telemetry.CounterKey{Rank: 1, Step: telemetry.StepNone, Name: telemetry.CtrReconnects}]
	if rc == 0 {
		t.Fatalf("cut %d connections but no session reconnect was recorded: %v", cuts, ctr)
	}
	pf := ctr[telemetry.CounterKey{Rank: 0, Step: telemetry.StepNone, Name: telemetry.CtrPeerFailures}] +
		ctr[telemetry.CounterKey{Rank: 1, Step: telemetry.StepNone, Name: telemetry.CtrPeerFailures}]
	if pf != 0 {
		t.Fatalf("transient cuts escalated to %d peer failure(s)", pf)
	}
}

func TestPartialWriteResetsAndReplays(t *testing.T) {
	// Regression for the pre-session Send bug: a partial frame write left
	// the connection open with a torn frame on the stream. The session must
	// instead reset the connection on any failed write and replay the frame
	// intact on the resumed connection.
	rec := telemetry.New()
	var wraps int32
	eps := startPair(t, func(rank int, cfg *Config) {
		cfg.Telemetry = rec
		if rank == 0 {
			cfg.WrapConn = func(peer int, c net.Conn) net.Conn {
				if atomic.AddInt32(&wraps, 1) == 1 {
					// First connection only: tear the second write (the
					// payload of the first data frame) in half.
					return faulty.WrapConn(c, faulty.ConnPlan{PartialWriteAfter: 2})
				}
				return c
			}
		}
	})
	defer eps[0].Close()
	defer eps[1].Close()

	if err := eps[0].Send(1, 5, []byte("replay-me")); err != nil {
		t.Fatalf("send through torn write: %v", err)
	}
	_, _, got, err := eps[1].RecvAny([]comm.MsgKey{{From: 0, Tag: 5}}, time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatalf("recv after replay: %v", err)
	}
	if string(got) != "replay-me" {
		t.Fatalf("replayed payload %q", got)
	}
	// The frame arrived exactly once.
	if _, _, _, err := eps[1].RecvAny([]comm.MsgKey{{From: 0, Tag: 5}}, time.Now().Add(100*time.Millisecond)); !errors.Is(err, comm.ErrDeadline) {
		t.Fatalf("second delivery of a replayed frame: %v", err)
	}
	// And traffic keeps flowing on the resumed connection.
	if err := eps[0].Send(1, 6, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if _, _, got, err := eps[1].RecvAny([]comm.MsgKey{{From: 0, Tag: 6}}, time.Now().Add(10*time.Second)); err != nil || string(got) != "after" {
		t.Fatalf("post-resume traffic: %q, %v", got, err)
	}
	ctr := rec.Counters()
	if n := ctr[telemetry.CounterKey{Rank: 0, Step: telemetry.StepNone, Name: telemetry.CtrReplayedFrames}]; n < 1 {
		t.Fatalf("replayed_frames = %d, want >= 1", n)
	}
	if n := ctr[telemetry.CounterKey{Rank: 0, Step: telemetry.StepNone, Name: telemetry.CtrReconnects}]; n < 1 {
		t.Fatalf("reconnects = %d, want >= 1", n)
	}
}

func TestDuplicateFrameDropped(t *testing.T) {
	// A replayed frame the receiver already delivered must be dropped by
	// the dedup window (and counted), never delivered twice.
	addrs, err := LoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New()
	var ep *Endpoint
	var startErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		ep, startErr = Start(Config{Rank: 0, Addrs: addrs, DialTimeout: 10 * time.Second, Telemetry: rec,
			Session: comm.SessionConfig{MaxReconnects: -1, HeartbeatInterval: -1}})
	}()
	conn := dialAsRank(t, addrs[0], 1)
	defer conn.Close()
	<-done
	if startErr != nil {
		t.Fatal(startErr)
	}
	defer ep.Close()

	frame := rawDataFrame(7, []byte("once"), 0)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil { // the replayed duplicate
		t.Fatal(err)
	}
	_, _, got, err := ep.RecvAny([]comm.MsgKey{{From: 1, Tag: 7}}, time.Now().Add(5*time.Second))
	if err != nil || string(got) != "once" {
		t.Fatalf("first delivery: %q, %v", got, err)
	}
	if _, _, _, err := ep.RecvAny([]comm.MsgKey{{From: 1, Tag: 7}}, time.Now().Add(200*time.Millisecond)); !errors.Is(err, comm.ErrDeadline) {
		t.Fatalf("duplicate was delivered: %v", err)
	}
	if n := rec.Counters()[telemetry.CounterKey{Rank: 0, Step: telemetry.StepNone, Name: telemetry.CtrDupFramesDropped}]; n != 1 {
		t.Fatalf("dup_frames_dropped = %d, want 1", n)
	}
}

func TestSendBlocksOnFullWindow(t *testing.T) {
	// The replay ring is bounded: with WindowFrames unacked frames
	// outstanding, Send must block until an ack drains the ring — the
	// backpressure that stops an outage from pinning unbounded memory.
	addrs, err := LoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	var ep *Endpoint
	var startErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		ep, startErr = Start(Config{Rank: 0, Addrs: addrs, DialTimeout: 10 * time.Second,
			Session: comm.SessionConfig{WindowFrames: 4, MaxReconnects: -1, HeartbeatInterval: -1}})
	}()
	conn := dialAsRank(t, addrs[0], 1) // never acks until told to
	defer conn.Close()
	<-done
	if startErr != nil {
		t.Fatal(startErr)
	}
	defer ep.Close()

	for i := 0; i < 4; i++ {
		if err := ep.Send(1, i, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d within window: %v", i, err)
		}
	}
	unblocked := make(chan error, 1)
	go func() {
		unblocked <- ep.Send(1, 4, []byte{4})
	}()
	select {
	case err := <-unblocked:
		t.Fatalf("send past a full window returned early: %v", err)
	case <-time.After(200 * time.Millisecond):
		// still blocked, as it must be
	}
	// Ack everything sent so far; the ring drains and the send completes.
	var hdr [frameHeader]byte
	encodeFrameHeader(hdr[:], ftAck, 1, 0, 4, 0, nil)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatalf("send after ack: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send stayed blocked after the window drained")
	}
}

func TestKillExhaustsBudgetAndFailsPeer(t *testing.T) {
	// A peer that dies for real — no listener, no resume — must exhaust the
	// reconnect budget and surface as the same PeerError a pre-session
	// connection loss produced, handing the failure to the recovery layer.
	rec := telemetry.New()
	eps := startPair(t, func(rank int, cfg *Config) {
		cfg.Telemetry = rec
		cfg.Session = comm.SessionConfig{ReconnectTimeout: time.Second, MaxReconnects: 3}
	})
	defer eps[0].Close()

	// Confirm the mesh is live, then crash rank 1 without a bye.
	if err := eps[1].Send(0, 1, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := eps[0].RecvAny([]comm.MsgKey{{From: 1, Tag: 1}}, time.Now().Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	eps[1].Kill()

	start := time.Now()
	_, _, _, err := eps[0].RecvAny([]comm.MsgKey{{From: 1, Tag: 99}}, time.Now().Add(15*time.Second))
	if !errors.Is(err, comm.ErrPeer) {
		t.Fatalf("got %v, want a peer error", err)
	}
	var pe *comm.PeerError
	if !errors.As(err, &pe) || pe.Rank != 1 {
		t.Fatalf("peer error does not name rank 1: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("budget exhaustion took %v", elapsed)
	}
	if n := rec.Counters()[telemetry.CounterKey{Rank: 0, Step: telemetry.StepNone, Name: telemetry.CtrPeerFailures}]; n < 1 {
		t.Fatalf("peer failure not counted: %d", n)
	}
}

func TestCloseSendsByeCleanDeparture(t *testing.T) {
	// A clean Close announces departure with a bye frame: the peer's
	// pending receives fail with a PeerError, but nothing reconnects and no
	// mid-run failure is counted — end-of-run traffic, not an outage.
	rec := telemetry.New()
	eps := startPair(t, func(rank int, cfg *Config) {
		cfg.Telemetry = rec
	})
	defer eps[0].Close()

	if err := eps[1].Send(0, 1, []byte("bye soon")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := eps[0].RecvAny([]comm.MsgKey{{From: 1, Tag: 1}}, time.Now().Add(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	eps[1].Close()
	_, _, _, err := eps[0].RecvAny([]comm.MsgKey{{From: 1, Tag: 50}}, time.Now().Add(5*time.Second))
	if !errors.Is(err, comm.ErrPeer) {
		t.Fatalf("got %v, want a peer error after peer departure", err)
	}
	ctr := rec.Counters()
	if n := ctr[telemetry.CounterKey{Rank: 0, Step: telemetry.StepNone, Name: telemetry.CtrPeerFailures}]; n != 0 {
		t.Fatalf("clean departure counted as %d peer failure(s)", n)
	}
	if n := ctr[telemetry.CounterKey{Rank: 0, Step: telemetry.StepNone, Name: telemetry.CtrReconnects}]; n != 0 {
		t.Fatalf("clean departure triggered %d reconnect(s)", n)
	}
}

func TestCloseDrainsUnackedFrames(t *testing.T) {
	// A rank that finishes early Sends its last frames and Closes
	// immediately. Close must drain the replay ring — wait for the peer's
	// acks — before touching the socket: closing with inbound acks still
	// unread makes the kernel RST the stream, and an RST destroys exactly
	// the unacked frames still in flight. Regression for a gather payload
	// lost to an early Close (found by rtsim -chaos -conn-reset).
	eps := startPair(t, nil)
	defer eps[0].Close()

	// Reverse traffic rank 0 -> rank 1 seeds rank 1's receive buffer with
	// data and standalone acks — the unread bytes that provoke the RST.
	for i := 0; i < 4; i++ {
		if err := eps[0].Send(1, 100+i, []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	const n = 8
	for i := 0; i < n; i++ {
		if err := eps[1].Send(0, i, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	eps[1].Close() // must not outrun the unacked frames

	for i := 0; i < n; i++ {
		_, _, got, err := eps[0].RecvAny([]comm.MsgKey{{From: 1, Tag: i}}, time.Now().Add(5*time.Second))
		if err != nil {
			t.Fatalf("recv %d after peer close: %v", i, err)
		}
		if len(got) != len(payload) || got[len(got)-1] != payload[len(payload)-1] {
			t.Fatalf("recv %d: corrupted payload (%d bytes)", i, len(got))
		}
	}
}
