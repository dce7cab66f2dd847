package faulty

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/comm"
	"rtcomp/internal/transport/inproc"
)

func TestZeroPlanIsTransparent(t *testing.T) {
	err := inproc.Run(2, func(inner comm.Comm) error {
		c := Wrap(inner, Plan{})
		if c.Rank() != inner.Rank() || c.Size() != 2 {
			return fmt.Errorf("identity not preserved")
		}
		if c.Rank() == 0 {
			return c.Send(1, 5, []byte("payload"))
		}
		got, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(got) != "payload" {
			return fmt.Errorf("payload %q", got)
		}
		if s := c.Stats(); s != (Stats{}) {
			return fmt.Errorf("zero plan injected faults: %+v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTripAndCorruptionDetection(t *testing.T) {
	payload := []byte("the quick brown fox")
	buf := frame(payload)
	got, ok := unframe(buf)
	if !ok || string(got) != string(payload) {
		t.Fatalf("clean frame rejected: ok=%v got=%q", ok, got)
	}
	for i := range buf {
		bad := make([]byte, len(buf))
		copy(bad, buf)
		bad[i] ^= 0x40
		if _, ok := unframe(bad); ok {
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
	if _, ok := unframe([]byte{1, 2}); ok {
		t.Fatal("truncated frame accepted")
	}
	empty := frame(nil)
	if got, ok := unframe(empty); !ok || len(got) != 0 {
		t.Fatal("empty payload frame broken")
	}
}

func TestCorruptionSurfacesAsDeadline(t *testing.T) {
	// CorruptProb 1 corrupts every frame; the receiver's CRC check must
	// reject them all and convert the damage into a deadline error.
	err := inproc.Run(2, func(inner comm.Comm) error {
		c := Wrap(inner, Plan{Seed: 1, CorruptProb: 1})
		if c.Rank() == 0 {
			return c.Send(1, 1, []byte("doomed"))
		}
		_, _, _, err := c.RecvAny([]comm.MsgKey{{From: 0, Tag: 1}}, time.Now().Add(100*time.Millisecond))
		if !errors.Is(err, comm.ErrDeadline) {
			return fmt.Errorf("got %v, want deadline", err)
		}
		s := c.Stats()
		if s.RejectedCRC == 0 {
			return fmt.Errorf("no CRC rejections recorded: %+v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDropWithoutResendIsSilentLoss(t *testing.T) {
	err := inproc.Run(2, func(inner comm.Comm) error {
		c := Wrap(inner, Plan{Seed: 1, Drop: 1})
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("gone")); err != nil {
				return fmt.Errorf("datagram sender must not see the loss: %v", err)
			}
			s := c.Stats()
			if s.Lost != 1 || s.Dropped != 1 {
				return fmt.Errorf("stats %+v", s)
			}
			return nil
		}
		_, _, _, err := c.RecvAny([]comm.MsgKey{{From: 0, Tag: 1}}, time.Now().Add(100*time.Millisecond))
		if !errors.Is(err, comm.ErrDeadline) {
			return fmt.Errorf("got %v, want deadline", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRetransmissionDefeatsDrop(t *testing.T) {
	// Drop 0.5 with 20 resend attempts: loss probability 0.5^21 — the
	// message must get through every time over many sends.
	err := inproc.Run(2, func(inner comm.Comm) error {
		c := Wrap(inner, Plan{Seed: 42, Drop: 0.5, MaxResend: 20, Backoff: 10 * time.Microsecond})
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, i, []byte{byte(i)}); err != nil {
					return err
				}
			}
			s := c.Stats()
			if s.Lost != 0 {
				return fmt.Errorf("lost %d messages despite 20 resends", s.Lost)
			}
			if s.Dropped == 0 || s.Resent == 0 {
				return fmt.Errorf("injection inactive: %+v", s)
			}
			return nil
		}
		for i := 0; i < n; i++ {
			_, _, got, err := c.RecvAny([]comm.MsgKey{{From: 0, Tag: i}}, time.Now().Add(5*time.Second))
			if err != nil {
				return fmt.Errorf("msg %d: %v", i, err)
			}
			if len(got) != 1 || got[0] != byte(i) {
				return fmt.Errorf("msg %d: payload %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatesAndDelaysDeliver(t *testing.T) {
	err := inproc.Run(2, func(inner comm.Comm) error {
		c := Wrap(inner, Plan{Seed: 7, DupProb: 1, DelayProb: 1, MaxDelay: 2 * time.Millisecond})
		const n = 10
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, i, []byte{byte(i)}); err != nil {
					return err
				}
			}
			s := c.Stats()
			if s.Duplicated != n || s.Delayed != n {
				return fmt.Errorf("stats %+v", s)
			}
			return nil
		}
		for i := 0; i < n; i++ {
			// Each message arrives twice; both copies must carry the payload.
			for copies := 0; copies < 2; copies++ {
				_, _, got, err := c.RecvAny([]comm.MsgKey{{From: 0, Tag: i}}, time.Now().Add(5*time.Second))
				if err != nil {
					return fmt.Errorf("msg %d copy %d: %v", i, copies, err)
				}
				if got[0] != byte(i) {
					return fmt.Errorf("msg %d copy %d: payload %v", i, copies, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDieAfterSends(t *testing.T) {
	done := make(chan struct{})
	err := inproc.Run(2, func(inner comm.Comm) error {
		if inner.Rank() == 1 {
			<-done
			return nil
		}
		defer close(done)
		c := Wrap(inner, Plan{Seed: 1, DieAfterSends: 2})
		if err := c.Send(1, 1, nil); err != nil {
			return err
		}
		if err := c.Send(1, 2, nil); err != nil {
			return err
		}
		if err := c.Send(1, 3, nil); !errors.Is(err, ErrDead) {
			return fmt.Errorf("third send: got %v, want ErrDead", err)
		}
		if err := c.Send(1, 4, nil); !errors.Is(err, ErrDead) {
			return fmt.Errorf("send after death: got %v, want ErrDead", err)
		}
		if _, _, _, err := c.RecvAny([]comm.MsgKey{{From: 1, Tag: 9}}, time.Now().Add(time.Millisecond)); !errors.Is(err, ErrDead) {
			return fmt.Errorf("recv after death: got %v, want ErrDead", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultStreamDeterminism(t *testing.T) {
	// The same seed and call sequence must yield the same fault decisions.
	plan := Plan{Seed: 99, Drop: 0.4, MaxResend: 3, Backoff: 10 * time.Microsecond,
		DupProb: 0.3, CorruptProb: 0.2, DelayProb: 0.2, MaxDelay: time.Millisecond}
	runOnce := func() Stats {
		var s Stats
		done := make(chan struct{})
		err := inproc.Run(2, func(inner comm.Comm) error {
			if inner.Rank() == 1 {
				// Keep the mailbox open until the sender finishes; it never
				// drains, but eager sends must have somewhere to land.
				<-done
				return nil
			}
			c := Wrap(inner, plan)
			defer close(done)
			for i := 0; i < 40; i++ {
				if err := c.Send(1, i, []byte{byte(i)}); err != nil {
					return err
				}
			}
			s = c.Stats()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	first := runOnce()
	if first == (Stats{}) {
		t.Fatal("plan injected nothing")
	}
	for trial := 0; trial < 3; trial++ {
		if got := runOnce(); got != first {
			t.Fatalf("trial %d: stats %+v != %+v", trial, got, first)
		}
	}
}

func TestSeedSeparatesRanks(t *testing.T) {
	// Different ranks draw from different streams: with a moderate drop
	// probability over many sends, two ranks making identical call
	// sequences should not produce identical fault patterns.
	stats := make([]Stats, 2)
	var senders sync.WaitGroup
	senders.Add(2)
	err := inproc.Run(3, func(inner comm.Comm) error {
		if inner.Rank() == 2 {
			senders.Wait() // hold the sink mailbox open for the eager senders
			return nil
		}
		defer senders.Done()
		c := Wrap(inner, Plan{Seed: 5, Drop: 0.5})
		for i := 0; i < 64; i++ {
			if err := c.Send(2, inner.Rank()*1000+i, []byte{1}); err != nil {
				return err
			}
		}
		stats[inner.Rank()] = c.Stats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0] == stats[1] {
		t.Fatalf("ranks 0 and 1 injected identical fault patterns: %+v", stats[0])
	}
}

// TestBrownoutDelaysButDelivers pins the gray-failure model: every message
// survives (no losses), but each one is held back by at least the brownout
// delay — slow, never dead.
func TestBrownoutDelaysButDelivers(t *testing.T) {
	const brown = 30 * time.Millisecond
	err := inproc.Run(2, func(inner comm.Comm) error {
		c := Wrap(inner, Plan{Brownout: brown})
		if c.Rank() == 0 {
			return c.Send(1, 9, []byte("slow"))
		}
		t0 := time.Now()
		got, err := c.Recv(0, 9)
		if err != nil {
			return err
		}
		if string(got) != "slow" {
			return fmt.Errorf("payload %q", got)
		}
		if waited := time.Since(t0); waited < brown/2 {
			return fmt.Errorf("delivery after %v, want a ~%v brownout hold", waited, brown)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBrownoutAfterSends pins the mid-run onset: sends up to the threshold
// land at full speed, the next one is held back by the brownout.
func TestBrownoutAfterSends(t *testing.T) {
	const brown = 40 * time.Millisecond
	err := inproc.Run(2, func(inner comm.Comm) error {
		c := Wrap(inner, Plan{Brownout: brown, BrownoutAfterSends: 1})
		if c.Rank() == 0 {
			if err := c.Send(1, 9, []byte("fast")); err != nil {
				return err
			}
			return c.Send(1, 10, []byte("slow"))
		}
		t0 := time.Now()
		if _, err := c.Recv(0, 9); err != nil {
			return err
		}
		if waited := time.Since(t0); waited >= brown/2 {
			return fmt.Errorf("pre-onset delivery after %v, want full speed", waited)
		}
		if _, err := c.Recv(0, 10); err != nil {
			return err
		}
		if waited := time.Since(t0); waited < brown/2 {
			return fmt.Errorf("post-onset delivery after %v, want a ~%v brownout hold", waited, brown)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
