package comm_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rtcomp/internal/comm"
	"rtcomp/internal/transport/inproc"
)

// run executes fn on every rank of a p-way in-process fabric and fails the
// test on any rank error.
func run(t *testing.T, p int, fn func(c comm.Comm) error) {
	t.Helper()
	if err := inproc.Run(p, fn); err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	// The receiver asks for the tags in the reverse of the send order; the
	// mailbox must match on (from, tag), not arrival position.
	run(t, 2, func(c comm.Comm) error {
		const n = 5
		if c.Rank() == 0 {
			for tag := 0; tag < n; tag++ {
				if err := c.Send(1, tag, []byte{byte(tag)}); err != nil {
					return err
				}
			}
			return nil
		}
		for tag := n - 1; tag >= 0; tag-- {
			payload, err := c.Recv(0, tag)
			if err != nil {
				return err
			}
			if len(payload) != 1 || payload[0] != byte(tag) {
				return fmt.Errorf("tag %d: got payload %v", tag, payload)
			}
		}
		return nil
	})
}

func TestRecvAnyArrivalOrder(t *testing.T) {
	// Rank 0 posts three messages to itself in a known order (inproc Send is
	// synchronous, so arrival order is the send order); RecvAny must drain
	// them oldest-first, reporting the true (from, tag) of each.
	run(t, 1, func(c comm.Comm) error {
		order := []int{7, 3, 5}
		for _, tag := range order {
			if err := c.Send(0, tag, []byte{byte(tag)}); err != nil {
				return err
			}
		}
		keys := []comm.MsgKey{{From: 0, Tag: 3}, {From: 0, Tag: 5}, {From: 0, Tag: 7}}
		for _, wantTag := range order {
			from, tag, payload, err := c.RecvAnyTimeout(keys, 0)
			if err != nil {
				return err
			}
			if from != 0 || tag != wantTag || payload[0] != byte(wantTag) {
				return fmt.Errorf("got (from=%d tag=%d), want tag %d", from, tag, wantTag)
			}
		}
		return nil
	})
}

func TestRecvAnySubsetLeavesOthersPending(t *testing.T) {
	// A RecvAny that only asks for one tag must not consume messages held
	// for other tags.
	run(t, 2, func(c comm.Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 10, []byte("ten")); err != nil {
				return err
			}
			return c.Send(1, 20, []byte("twenty"))
		}
		_, tag, payload, err := c.RecvAnyTimeout([]comm.MsgKey{{From: 0, Tag: 20}}, 0)
		if err != nil {
			return err
		}
		if tag != 20 || string(payload) != "twenty" {
			return fmt.Errorf("got tag %d payload %q", tag, payload)
		}
		payload, err = c.Recv(0, 10)
		if err != nil {
			return err
		}
		if string(payload) != "ten" {
			return fmt.Errorf("tag 10 payload %q", payload)
		}
		return nil
	})
}

func TestSequencerTagsUniqueAcrossCollectives(t *testing.T) {
	// Back-to-back collectives of every kind must not cross wires: each
	// invocation burns its own tag block. A tag collision would deliver one
	// round's payload to another round and corrupt the results.
	for _, p := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			run(t, p, func(c comm.Comm) error {
				var seq comm.Sequencer
				for round := 0; round < 4; round++ {
					root := round % p
					vals := []int64{int64(c.Rank() + 1), int64(round)}
					sums, err := comm.ReduceSumTimeout(c, &seq, root, vals, 0)
					if err != nil {
						return err
					}
					if c.Rank() == root {
						wantSum := int64(p * (p + 1) / 2)
						if sums[0] != wantSum || sums[1] != int64(round*p) {
							return fmt.Errorf("round %d: sums %v, want [%d %d]", round, sums, wantSum, round*p)
						}
					} else if sums != nil {
						return fmt.Errorf("round %d: non-root got sums %v", round, sums)
					}
					parts, err := comm.GatherTimeout(c, &seq, root, []byte{byte(c.Rank()), byte(round)}, 0)
					if err != nil {
						return err
					}
					if c.Rank() == root {
						for r, part := range parts {
							if part[0] != byte(r) || part[1] != byte(round) {
								return fmt.Errorf("round %d: gathered %v from rank %d", round, part, r)
							}
						}
					}
					if err := comm.BarrierTimeout(c, &seq, 0); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func TestBarrierSynchronises(t *testing.T) {
	// No rank may leave the barrier before every rank has entered it.
	const p = 6
	entered := make(chan int, p)
	run(t, p, func(c comm.Comm) error {
		var seq comm.Sequencer
		entered <- c.Rank()
		if err := comm.BarrierTimeout(c, &seq, 0); err != nil {
			return err
		}
		if len(entered) != p {
			return fmt.Errorf("rank %d left the barrier with only %d ranks entered", c.Rank(), len(entered))
		}
		return nil
	})
}

func TestCountersAdd(t *testing.T) {
	a := comm.Counters{MsgsSent: 1, BytesSent: 10, MsgsRecv: 2, BytesRecv: 20}
	b := comm.Counters{MsgsSent: 3, BytesSent: 30, MsgsRecv: 4, BytesRecv: 40}
	got := a.Add(b)
	want := comm.Counters{MsgsSent: 4, BytesSent: 40, MsgsRecv: 6, BytesRecv: 60}
	if got != want {
		t.Fatalf("Add: got %+v, want %+v", got, want)
	}
	if z := (comm.Counters{}).Add(a); z != a {
		t.Fatalf("zero.Add(a): got %+v, want %+v", z, a)
	}
}

func TestCountersTrackTraffic(t *testing.T) {
	run(t, 2, func(c comm.Comm) error {
		payload := []byte("12345")
		if c.Rank() == 0 {
			if err := c.Send(1, 1, payload); err != nil {
				return err
			}
			n := c.Counters()
			if n.MsgsSent != 1 || n.BytesSent != int64(len(payload)) {
				return fmt.Errorf("sender counters %+v", n)
			}
			return nil
		}
		if _, err := c.Recv(0, 1); err != nil {
			return err
		}
		n := c.Counters()
		if n.MsgsRecv != 1 || n.BytesRecv != int64(len(payload)) {
			return fmt.Errorf("receiver counters %+v", n)
		}
		return nil
	})
}

func TestRecvTimeoutReturnsDeadlineError(t *testing.T) {
	run(t, 2, func(c comm.Comm) error {
		if c.Rank() != 0 {
			return nil // never sends
		}
		start := time.Now()
		_, err := c.RecvTimeout(1, 99, 30*time.Millisecond)
		if !errors.Is(err, comm.ErrDeadline) {
			return fmt.Errorf("got %v, want ErrDeadline", err)
		}
		var de *comm.DeadlineError
		if !errors.As(err, &de) {
			return fmt.Errorf("error %v is not a *DeadlineError", err)
		}
		if de.Rank != 0 || len(de.Keys) != 1 || de.Keys[0] != (comm.MsgKey{From: 1, Tag: 99}) {
			return fmt.Errorf("DeadlineError fields %+v", de)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			return fmt.Errorf("timeout took %v", elapsed)
		}
		if !comm.IsRecoverable(err) {
			return fmt.Errorf("deadline error should be recoverable")
		}
		return nil
	})
}

func TestErrorTyping(t *testing.T) {
	inner := errors.New("connection reset")
	pe := &comm.PeerError{Rank: 3, Err: inner}
	if !errors.Is(pe, comm.ErrPeer) {
		t.Fatal("PeerError should match ErrPeer")
	}
	if !errors.Is(pe, inner) {
		t.Fatal("PeerError should unwrap to its cause")
	}
	if !comm.IsRecoverable(pe) {
		t.Fatal("peer errors are recoverable")
	}
	if comm.IsRecoverable(errors.New("local fault")) {
		t.Fatal("arbitrary errors are not recoverable")
	}
	if comm.IsRecoverable(nil) {
		t.Fatal("nil is not recoverable")
	}
}
