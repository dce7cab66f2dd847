package tcpnet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/comm"
)

// runMesh starts p endpoints on loopback, runs fn per rank, and fails the
// test on any error. The listeners are bound up front and handed to Start
// (never released between port discovery and use), so there is no bind
// race to deflake.
func runMesh(t *testing.T, p int, fn func(c comm.Comm) error) {
	t.Helper()
	lns, addrs, err := ListenLoopback(p)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := Start(Config{Rank: r, Addrs: addrs, Listener: lns[r], DialTimeout: 10 * time.Second})
			if err != nil {
				errs[r] = err
				return
			}
			defer ep.Close()
			errs[r] = fn(ep)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestMeshPingPong(t *testing.T) {
	runMesh(t, 2, func(c comm.Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 3, []byte("over tcp")); err != nil {
				return err
			}
			got, err := c.Recv(1, 4)
			if err != nil {
				return err
			}
			if string(got) != "ack" {
				return fmt.Errorf("got %q", got)
			}
			return nil
		}
		got, err := c.Recv(0, 3)
		if err != nil {
			return err
		}
		if string(got) != "over tcp" {
			return fmt.Errorf("got %q", got)
		}
		return c.Send(0, 4, []byte("ack"))
	})
}

func TestMeshAllToAll(t *testing.T) {
	p := 5
	runMesh(t, p, func(c comm.Comm) error {
		for to := 0; to < p; to++ {
			if to == c.Rank() {
				continue
			}
			payload := []byte{byte(c.Rank()), byte(to)}
			if err := c.Send(to, 100+c.Rank(), payload); err != nil {
				return err
			}
		}
		for from := 0; from < p; from++ {
			if from == c.Rank() {
				continue
			}
			got, err := c.Recv(from, 100+from)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, []byte{byte(from), byte(c.Rank())}) {
				return fmt.Errorf("from %d: payload %v", from, got)
			}
		}
		return nil
	})
}

func TestMeshLargeFramesAndNegativeTags(t *testing.T) {
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	runMesh(t, 2, func(c comm.Comm) error {
		var seq comm.Sequencer
		if c.Rank() == 0 {
			if err := c.Send(1, 0, big); err != nil {
				return err
			}
		} else {
			got, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, big) {
				return fmt.Errorf("large frame corrupted")
			}
		}
		// Collectives use negative tags over the same conns.
		return comm.BarrierTimeout(c, &seq, 0)
	})
}

func TestMeshCollectives(t *testing.T) {
	p := 4
	runMesh(t, p, func(c comm.Comm) error {
		var seq comm.Sequencer
		got, err := comm.GatherTimeout(c, &seq, 0, []byte{byte(c.Rank() + 1)}, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r := 0; r < p; r++ {
				if len(got[r]) != 1 || got[r][0] != byte(r+1) {
					return fmt.Errorf("gather slot %d = %v", r, got[r])
				}
			}
		}
		return nil
	})
}

func TestStartRejectsBadConfig(t *testing.T) {
	if _, err := Start(Config{Rank: 2, Addrs: []string{"a", "b"}}); err == nil {
		t.Fatal("bad rank accepted")
	}
	if _, err := Start(Config{Rank: 0, Addrs: nil}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestSingleRankMesh(t *testing.T) {
	ep, err := Start(Config{Rank: 0, Addrs: []string{"127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	var seq comm.Sequencer
	if err := comm.BarrierTimeout(ep, &seq, 0); err != nil {
		t.Fatal(err)
	}
	got, err := comm.GatherTimeout(ep, &seq, 0, []byte("solo"), 0)
	if err != nil || string(got[0]) != "solo" {
		t.Fatalf("gather = %v, %v", got, err)
	}
}

func TestSendOversizedFrameRejected(t *testing.T) {
	runMesh(t, 2, func(c comm.Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, make([]byte, maxFrame+1)); err == nil {
				return fmt.Errorf("oversized frame accepted")
			}
			// Tell rank 1 we're done.
			return c.Send(1, 1, nil)
		}
		_, err := c.Recv(0, 1)
		return err
	})
}

func TestMeshRecvAnyAndCounters(t *testing.T) {
	runMesh(t, 3, func(c comm.Comm) error {
		if c.Rank() == 0 {
			// Expect one message each from ranks 1 and 2, in arrival order.
			keys := []comm.MsgKey{{From: 1, Tag: 7}, {From: 2, Tag: 9}}
			seen := map[int]bool{}
			for len(keys) > 0 {
				from, tag, payload, err := c.RecvAny(keys, time.Time{})
				if err != nil {
					return err
				}
				if seen[from] {
					return fmt.Errorf("duplicate delivery from %d", from)
				}
				seen[from] = true
				if len(payload) != 1 || payload[0] != byte(from) {
					return fmt.Errorf("from %d tag %d payload %v", from, tag, payload)
				}
				// Drop the satisfied key, as the compositor does: a peer may
				// close as soon as its message is sent.
				for i, k := range keys {
					if k.From == from && k.Tag == tag {
						keys = append(keys[:i], keys[i+1:]...)
						break
					}
				}
			}
			ctr := c.Counters()
			if ctr.MsgsRecv != 2 || ctr.BytesRecv != 2 {
				return fmt.Errorf("counters %+v", ctr)
			}
			// Invalid source rank in the wait set.
			if _, _, _, err := c.RecvAny([]comm.MsgKey{{From: 9, Tag: 0}}, time.Time{}); err == nil {
				return fmt.Errorf("invalid RecvAny source accepted")
			}
			return nil
		}
		tag := 7
		if c.Rank() == 2 {
			tag = 9
		}
		return c.Send(0, tag, []byte{byte(c.Rank())})
	})
}
