package tcpnet

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/comm"
)

func TestRecvTimeoutReturnsTypedDeadline(t *testing.T) {
	runMesh(t, 2, func(c comm.Comm) error {
		if c.Rank() == 0 {
			start := time.Now()
			_, _, _, err := c.RecvAny([]comm.MsgKey{{From: 1, Tag: 42}}, time.Now().Add(50*time.Millisecond))
			if !errors.Is(err, comm.ErrDeadline) {
				t.Errorf("got %v, want ErrDeadline", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("deadline receive blocked for %v", elapsed)
			}
			// Unblock rank 1.
			return c.Send(1, 1, nil)
		}
		_, err := c.Recv(0, 1)
		return err
	})
}

func TestMeshTimeoutNamesMissingRanks(t *testing.T) {
	// Rank 0 comes up alone in a 3-rank mesh: its Start must fail within
	// the timeout and name the ranks that never arrived, not hang.
	addrs, err := LoopbackAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Start(Config{Rank: 0, Addrs: addrs, DialTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("mesh setup succeeded with two ranks missing")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("mesh setup blocked for %v", elapsed)
	}
	msg := err.Error()
	if !strings.Contains(msg, "waiting for rank(s)") || !strings.Contains(msg, "1") || !strings.Contains(msg, "2") {
		t.Fatalf("timeout error does not attribute the missing ranks: %q", msg)
	}
}

func TestMeshLogsHandshakeProgress(t *testing.T) {
	addrs, err := LoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, format)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := Start(Config{Rank: r, Addrs: addrs, DialTimeout: 10 * time.Second, Logf: logf})
			if err != nil {
				t.Error(err)
				return
			}
			ep.Close()
		}(r)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 {
		t.Fatal("mesh setup logged no per-peer progress")
	}
}

// dialAsRank performs the resume handshake by hand, impersonating a peer
// on a fresh session (epoch 1, nothing received).
func dialAsRank(t *testing.T, addr string, rank int) net.Conn {
	t.Helper()
	var conn net.Conn
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		conn, err = net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	hello := encodeHello(rank, 1, 0)
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	var reply [replyLen]byte
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		t.Fatalf("resume reply: %v", err)
	}
	conn.SetReadDeadline(time.Time{})
	if epoch, recvSeq, err := parseResumeReply(reply[:]); err != nil || epoch != 1 || recvSeq != 0 {
		t.Fatalf("resume reply epoch %d recvSeq %d err %v, want 1, 0, nil", epoch, recvSeq, err)
	}
	return conn
}

// rawDataFrame hand-builds a v3 data frame (epoch 1, seq 1), optionally
// flipping bits in the checksum.
func rawDataFrame(tag int64, payload []byte, crcXOR uint32) []byte {
	frame := make([]byte, frameHeader+len(payload))
	encodeFrameHeader(frame[:frameHeader], ftData, 1, 1, 0, tag, payload)
	crc := binary.BigEndian.Uint32(frame[crcOffset:frameHeader])
	binary.BigEndian.PutUint32(frame[crcOffset:frameHeader], crc^crcXOR)
	copy(frame[frameHeader:], payload)
	return frame
}

func TestCorruptFrameFailsPeerWithTypedError(t *testing.T) {
	// A hand-built frame with a wrong checksum must poison exactly the
	// sending peer: the receiver's pending Recv fails with a PeerError
	// naming the rank instead of delivering garbage or hanging.
	addrs, err := LoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	var ep *Endpoint
	var startErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Reconnection is disabled: a fake peer never resumes, and the test
		// asserts the checksum failure surfaces as a PeerError within its
		// receive deadline rather than after a reconnect budget.
		ep, startErr = Start(Config{Rank: 0, Addrs: addrs, DialTimeout: 10 * time.Second,
			Session: comm.SessionConfig{MaxReconnects: -1, HeartbeatInterval: -1}})
	}()
	conn := dialAsRank(t, addrs[0], 1)
	defer conn.Close()
	<-done
	if startErr != nil {
		t.Fatal(startErr)
	}
	defer ep.Close()

	if _, err := conn.Write(rawDataFrame(7, []byte("poisoned"), 0xDEADBEEF)); err != nil {
		t.Fatal(err)
	}

	_, _, _, err = ep.RecvAny([]comm.MsgKey{{From: 1, Tag: 7}}, time.Now().Add(5*time.Second))
	if !errors.Is(err, comm.ErrPeer) {
		t.Fatalf("got %v, want a peer error", err)
	}
	var pe *comm.PeerError
	if !errors.As(err, &pe) || pe.Rank != 1 {
		t.Fatalf("peer error does not name rank 1: %v", err)
	}
}

func TestValidFrameWithChecksumDelivers(t *testing.T) {
	// The mirror-image control for the corruption test: the same hand-built
	// frame with a correct checksum must deliver the payload.
	addrs, err := LoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	var ep *Endpoint
	var startErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Heartbeats off: the hand-rolled peer never sends any, so the idle
		// deadline must not cut the connection under the test.
		ep, startErr = Start(Config{Rank: 0, Addrs: addrs, DialTimeout: 10 * time.Second,
			Session: comm.SessionConfig{MaxReconnects: -1, HeartbeatInterval: -1}})
	}()
	conn := dialAsRank(t, addrs[0], 1)
	defer conn.Close()
	<-done
	if startErr != nil {
		t.Fatal(startErr)
	}
	defer ep.Close()

	if _, err := conn.Write(rawDataFrame(9, []byte("intact"), 0)); err != nil {
		t.Fatal(err)
	}
	_, _, got, err := ep.RecvAny([]comm.MsgKey{{From: 1, Tag: 9}}, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "intact" {
		t.Fatalf("payload %q", got)
	}
}

func TestBadHandshakeDoesNotConsumePeerSlot(t *testing.T) {
	// A stray connection with garbage where the handshake should be must be
	// rejected without claiming rank 1's slot: the real rank 1 connecting
	// afterwards completes the mesh.
	addrs, err := LoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	var ep0 *Endpoint
	var err0 error
	done := make(chan struct{})
	go func() {
		defer close(done)
		ep0, err0 = Start(Config{Rank: 0, Addrs: addrs, DialTimeout: 10 * time.Second})
	}()
	// The stray: valid TCP, invalid magic.
	var stray net.Conn
	for attempt := 0; attempt < 100; attempt++ {
		stray, err = net.DialTimeout("tcp", addrs[0], time.Second)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	stray.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	defer stray.Close()

	ep1, err := Start(Config{Rank: 1, Addrs: addrs, DialTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer ep1.Close()
	<-done
	if err0 != nil {
		t.Fatal(err0)
	}
	defer ep0.Close()
	// The mesh works end to end despite the stray.
	if err := ep1.Send(0, 3, []byte("after-stray")); err != nil {
		t.Fatal(err)
	}
	_, _, got, err := ep0.RecvAny([]comm.MsgKey{{From: 1, Tag: 3}}, time.Now().Add(5*time.Second))
	if err != nil || string(got) != "after-stray" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestDialRetryRidesOutSlowListener(t *testing.T) {
	// Rank 1 starts dialing before rank 0's listener exists; the bounded
	// retry with backoff must carry it through once rank 0 comes up.
	addrs, err := LoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	eps := make([]*Endpoint, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		eps[1], errs[1] = Start(Config{Rank: 1, Addrs: addrs, DialTimeout: 10 * time.Second})
	}()
	time.Sleep(300 * time.Millisecond) // let rank 1 burn dial attempts
	wg.Add(1)
	go func() {
		defer wg.Done()
		eps[0], errs[0] = Start(Config{Rank: 0, Addrs: addrs, DialTimeout: 10 * time.Second})
	}()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		defer eps[r].Close()
	}
	if err := eps[0].Send(1, 1, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if _, _, got, err := eps[1].RecvAny([]comm.MsgKey{{From: 0, Tag: 1}}, time.Now().Add(5*time.Second)); err != nil || string(got) != "late" {
		t.Fatalf("got %q, %v", got, err)
	}
}
