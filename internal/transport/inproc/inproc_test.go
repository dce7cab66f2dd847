package inproc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/comm"
)

func TestPingPong(t *testing.T) {
	err := Run(2, func(c comm.Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 5, []byte("ping")); err != nil {
				return err
			}
			got, err := c.Recv(1, 6)
			if err != nil {
				return err
			}
			if string(got) != "pong" {
				return fmt.Errorf("got %q", got)
			}
			return nil
		}
		got, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(got) != "ping" {
			return fmt.Errorf("got %q", got)
		}
		return c.Send(0, 6, []byte("pong"))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	f := New(2)
	a, b := f.Endpoint(0), f.Endpoint(1)
	buf := []byte{1, 2, 3}
	if err := a.Send(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // mutate after send
	got, err := b.Recv(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("payload aliased sender buffer: %v", got)
	}
}

func TestBarrierAllRanks(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		phase := make([]int, p)
		err := Run(p, func(c comm.Comm) error {
			var seq comm.Sequencer
			for round := 0; round < 3; round++ {
				phase[c.Rank()] = round
				if err := comm.BarrierTimeout(c, &seq, 0); err != nil {
					return err
				}
				// After the barrier, every rank must have entered `round`.
				for r := 0; r < p; r++ {
					if phase[r] < round {
						return fmt.Errorf("rank %d saw rank %d lagging at round %d", c.Rank(), r, round)
					}
				}
				// Second barrier: no rank may advance to the next round's
				// write while a peer is still reading this round's phases.
				if err := comm.BarrierTimeout(c, &seq, 0); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestGather(t *testing.T) {
	p := 7
	err := Run(p, func(c comm.Comm) error {
		var seq comm.Sequencer
		payload := []byte{byte(c.Rank() * 3)}
		got, err := comm.GatherTimeout(c, &seq, 2, payload, 0)
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if got != nil {
				return fmt.Errorf("non-root received gather output")
			}
			return nil
		}
		for r := 0; r < p; r++ {
			if len(got[r]) != 1 || got[r][0] != byte(r*3) {
				return fmt.Errorf("slot %d = %v", r, got[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConsecutiveCollectivesDoNotCollide(t *testing.T) {
	err := Run(4, func(c comm.Comm) error {
		var seq comm.Sequencer
		for i := 0; i < 10; i++ {
			if err := comm.BarrierTimeout(c, &seq, 0); err != nil {
				return err
			}
			if _, err := comm.GatherTimeout(c, &seq, i%4, []byte{byte(i)}, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCounters(t *testing.T) {
	f := New(2)
	a, b := f.Endpoint(0), f.Endpoint(1)
	a.Send(1, 0, make([]byte, 100))
	a.Send(1, 1, make([]byte, 50))
	b.Recv(0, 0)
	ca, cb := a.Counters(), b.Counters()
	if ca.MsgsSent != 2 || ca.BytesSent != 150 {
		t.Fatalf("sender counters %+v", ca)
	}
	if cb.MsgsRecv != 1 || cb.BytesRecv != 100 {
		t.Fatalf("receiver counters %+v", cb)
	}
}

func TestOutOfRangeRanks(t *testing.T) {
	f := New(2)
	a := f.Endpoint(0)
	if err := a.Send(5, 0, nil); err == nil {
		t.Fatal("Send to rank 5 accepted")
	}
	if _, err := a.Recv(-1, 0); err == nil {
		t.Fatal("Recv from rank -1 accepted")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	err := Run(3, func(c comm.Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("rank 1 failed")
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run swallowed the error")
	}
}

// One way a mesh ends: a rank that returns nil stays reachable until every
// rank has returned, while a rank that fails closes its endpoint at once, so
// a later send to it is a PeerError naming it.
func TestRunEndsMeshOnce(t *testing.T) {
	const p = 3
	boom := errors.New("boom")
	departures := []struct {
		rank int
		ret  error
	}{{rank: 0, ret: nil}, {rank: 2, ret: boom}}
	returned := make(chan struct{}, len(departures))
	err := Run(p, func(c comm.Comm) error {
		for _, d := range departures {
			if c.Rank() == d.rank {
				returned <- struct{}{}
				return d.ret
			}
		}
		for range departures {
			<-returned
		}
		// A failed rank's endpoint closes as its fn returns: send until
		// the close shows.
		for _, d := range departures {
			if d.ret == nil {
				continue
			}
			var perr *comm.PeerError
			for start := time.Now(); ; time.Sleep(time.Millisecond) {
				err := c.Send(d.rank, 1, nil)
				if errors.As(err, &perr) && perr.Rank == d.rank {
					break
				}
				if time.Since(start) > 5*time.Second {
					return fmt.Errorf("rank %d failed, but a send to it still reads %v", d.rank, err)
				}
			}
		}
		// Long after the failed rank's close showed, a rank that returned
		// nil still takes messages.
		time.Sleep(20 * time.Millisecond)
		for _, d := range departures {
			if d.ret != nil {
				continue
			}
			if err := c.Send(d.rank, 2, []byte("late")); err != nil {
				return fmt.Errorf("send to rank %d, which returned nil: %v", d.rank, err)
			}
		}
		return nil
	})
	if !errors.Is(err, boom) || err.Error() != boom.Error() {
		t.Fatalf("Run = %v, want only rank 2's error (rank 1's checks must pass)", err)
	}
}

// A fabric runs its ranks again and again without closing anything: each
// run's counters start at zero, a run that consumes everything it sends
// leaves the fabric Idle, one that leaves a message behind does not, and
// Close turns every later send into a PeerError. Run under -race as well.
func TestFabricRunsAgain(t *testing.T) {
	const p = 3
	f := New(p)
	ring := func(c comm.Comm) error {
		next, prev := (c.Rank()+1)%p, (c.Rank()+p-1)%p
		if err := c.Send(next, 4, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		got, err := c.Recv(prev, 4)
		if err != nil {
			return err
		}
		if got[0] != byte(prev) {
			return fmt.Errorf("rank %d got %d from rank %d", c.Rank(), got[0], prev)
		}
		if n := c.Counters(); n.MsgsSent != 1 || n.MsgsRecv != 1 {
			return fmt.Errorf("rank %d counts %+v for this run, want one message each way", c.Rank(), n)
		}
		return nil
	}
	for run := 0; run < 5; run++ {
		if err := f.Run(ring); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !f.Idle() {
			t.Fatalf("run %d consumed every message but left the fabric busy", run)
		}
	}
	if err := f.Run(func(c comm.Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 5, []byte("unread"))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if f.Idle() {
		t.Fatal("a run left a message behind and the fabric reads idle")
	}
	f.Close()
	var perr *comm.PeerError
	if err := f.Endpoint(0).Send(2, 6, nil); !errors.As(err, &perr) || perr.Rank != 2 {
		t.Fatalf("send on a closed fabric: %v, want a PeerError naming rank 2", err)
	}
}

// TestPoolHandoffExclusivity is the race certificate for the buffer-ownership
// contract between the pool, the fabric and the mailbox: a sender recycles
// its payload immediately after Send (the fabric copies), a receiver
// scribbles over and recycles every payload it gets (the mailbox drops its
// reference on retrieval). With both sides churning the same pool size class
// as fast as they can, any retained reference — a stale mailbox slot, a
// Send that aliases instead of copying — surfaces as a data race under -race
// or as a torn pattern check.
func TestPoolHandoffExclusivity(t *testing.T) {
	const n, size = 4000, 1024
	err := Run(2, func(c comm.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				buf := bufpool.Get(size)
				for j := range buf {
					buf[j] = byte(i)
				}
				if err := c.Send(1, 9, buf); err != nil {
					return err
				}
				// Send does not retain payload: this Put hands the buffer to
				// the next Get, which will overwrite it while message i may
				// still sit undelivered in rank 1's mailbox.
				bufpool.Put(buf)
			}
			return nil
		}
		for i := 0; i < n; i++ {
			payload, err := c.Recv(0, 9)
			if err != nil {
				return err
			}
			for j, b := range payload {
				if b != byte(i) {
					return fmt.Errorf("message %d byte %d = %#x, want %#x (pooled buffer reused while in flight)", i, j, b, byte(i))
				}
			}
			// The payload is exclusively ours: scribbling must not disturb
			// any message still pending in the mailbox.
			for j := range payload {
				payload[j] = 0xEE
			}
			bufpool.Put(payload)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
