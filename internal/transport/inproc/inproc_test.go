package inproc

import (
	"bytes"
	"fmt"
	"testing"

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

func TestReduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		for _, root := range []int{0, p - 1} {
			err := Run(p, func(c comm.Comm) error {
				var seq comm.Sequencer
				vals := []int64{int64(c.Rank()), 1, int64(c.Rank() * c.Rank())}
				got, err := comm.ReduceSumTimeout(c, &seq, root, vals, 0)
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if got != nil {
						return fmt.Errorf("non-root received reduce output")
					}
					return nil
				}
				var wantSum, wantSq int64
				for r := 0; r < p; r++ {
					wantSum += int64(r)
					wantSq += int64(r * r)
				}
				if got[0] != wantSum || got[1] != int64(p) || got[2] != wantSq {
					return fmt.Errorf("reduce = %v, want [%d %d %d]", got, wantSum, p, wantSq)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestReduceSumRepeated(t *testing.T) {
	err := Run(4, func(c comm.Comm) error {
		var seq comm.Sequencer
		for i := 0; i < 5; i++ {
			got, err := comm.ReduceSumTimeout(c, &seq, 0, []int64{1}, 0)
			if err != nil {
				return err
			}
			if c.Rank() == 0 && got[0] != 4 {
				return fmt.Errorf("round %d: sum %d", i, got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
