package comm_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"rtcomp/internal/comm"
	"rtcomp/internal/transport/faulty"
	"rtcomp/internal/transport/inproc"
	"rtcomp/internal/transport/tcpnet"
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
			from, tag, payload, err := c.RecvAny(keys, time.Time{})
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
		_, tag, payload, err := c.RecvAny([]comm.MsgKey{{From: 0, Tag: 20}}, time.Time{})
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

// TestRecvAnyContract is RecvAny's deadline contract, row by row, on each
// fabric: inproc, tcpnet over loopback, and a zero-plan faulty endpoint over
// inproc. Rank 1 sends (or keeps quiet, or closes) and rank 0 receives.
func TestRecvAnyContract(t *testing.T) {
	const tag, marker = 5, 6
	key := []comm.MsgKey{{From: 1, Tag: tag}}
	expect := func(c comm.Comm, deadline time.Time, want string) error {
		_, _, got, err := c.RecvAny(key, deadline)
		if err != nil || string(got) != want {
			return fmt.Errorf("got %q, %v; want %q", got, err, want)
		}
		return nil
	}
	rows := []struct {
		name       string
		recv, send func(c comm.Comm) error
	}{{
		name: "zero_deadline_waits_for_a_later_send",
		recv: func(c comm.Comm) error { return expect(c, time.Time{}, "late") },
		send: func(c comm.Comm) error {
			time.Sleep(20 * time.Millisecond)
			return c.Send(0, tag, []byte("late"))
		},
	}, {
		name: "passed_deadline_returns_a_queued_message",
		recv: func(c comm.Comm) error {
			// The marker went second, so once it is here the message is queued.
			if _, err := c.Recv(1, marker); err != nil {
				return err
			}
			return expect(c, time.Now().Add(-time.Second), "queued")
		},
		send: func(c comm.Comm) error {
			if err := c.Send(0, tag, []byte("queued")); err != nil {
				return err
			}
			return c.Send(0, marker, nil)
		},
	}, {
		name: "passed_deadline_with_nothing_queued",
		recv: func(c comm.Comm) error {
			want := []comm.MsgKey{{From: 1, Tag: 98}, {From: 1, Tag: 99}}
			for _, deadline := range []time.Time{time.Now().Add(-time.Second), time.Now().Add(time.Millisecond)} {
				keys := append([]comm.MsgKey(nil), want...)
				start := time.Now()
				_, _, _, err := c.RecvAny(keys, deadline)
				if elapsed := time.Since(start); elapsed > 5*time.Second {
					return fmt.Errorf("timeout took %v", elapsed)
				}
				var de *comm.DeadlineError
				if !errors.Is(err, comm.ErrDeadline) || !errors.As(err, &de) || !comm.IsRecoverable(err) {
					return fmt.Errorf("got %v, want a recoverable *DeadlineError", err)
				}
				if de.Rank != 0 || !slices.Equal(de.Keys, want) || !de.Deadline.Equal(deadline) {
					return fmt.Errorf("DeadlineError fields %+v, want rank 0, keys %v, deadline %v", de, want, deadline)
				}
				// The caller reuses its slice; the error must not change with it.
				keys[0] = comm.MsgKey{From: 1, Tag: 999}
				if !slices.Equal(de.Keys, want) || strings.Contains(err.Error(), "{1 999}") {
					return fmt.Errorf("after the caller reused its keys the error reads %v", err)
				}
			}
			return nil
		},
		send: func(comm.Comm) error { return nil },
	}, {
		name: "message_sent_after_the_deadline_is_still_received",
		recv: func(c comm.Comm) error {
			if _, _, _, err := c.RecvAny(key, time.Now().Add(20*time.Millisecond)); !errors.Is(err, comm.ErrDeadline) {
				return fmt.Errorf("got %v, want ErrDeadline", err)
			}
			if err := c.Send(1, marker, nil); err != nil {
				return err
			}
			return expect(c, time.Time{}, "after")
		},
		send: func(c comm.Comm) error {
			if _, err := c.Recv(0, marker); err != nil {
				return err
			}
			return c.Send(0, tag, []byte("after"))
		},
	}, {
		// A receive sees the close where the fabric carries it (tcpnet); a
		// send to the closed peer sees it on every fabric.
		name: "closed_peer_yields_PeerError",
		recv: func(c comm.Comm) error {
			for giveUp := time.Now().Add(10 * time.Second); time.Now().Before(giveUp); {
				_, _, _, err := c.RecvAny(key, time.Now().Add(10*time.Millisecond))
				if errors.Is(err, comm.ErrDeadline) {
					err = c.Send(1, tag, nil)
				}
				if err == nil {
					continue
				}
				var perr *comm.PeerError
				if !errors.As(err, &perr) || perr.Rank != 1 {
					return fmt.Errorf("got %v, want a *PeerError naming rank 1", err)
				}
				return nil
			}
			return errors.New("rank 1 closed, but neither a send nor a receive failed")
		},
		send: func(c comm.Comm) error { return c.Close() },
	}}
	for _, fabric := range []struct {
		name string
		run  func(fn func(c comm.Comm) error) error
	}{
		{"inproc", func(fn func(c comm.Comm) error) error { return inproc.Run(2, fn) }},
		{"tcpnet", func(fn func(c comm.Comm) error) error {
			return tcpnet.Run(2, tcpnet.Config{DialTimeout: 20 * time.Second}, func(ep *tcpnet.Endpoint) error { return fn(ep) })
		}},
		{"faulty", func(fn func(c comm.Comm) error) error {
			return inproc.Run(2, func(c comm.Comm) error { return fn(faulty.Wrap(c, faulty.Plan{})) })
		}},
	} {
		for _, row := range rows {
			t.Run(fabric.name+"/"+row.name, func(t *testing.T) {
				err := fabric.run(func(c comm.Comm) error {
					if c.Rank() == 0 {
						return row.recv(c)
					}
					return row.send(c)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
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
