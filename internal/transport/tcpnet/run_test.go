package tcpnet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/comm"
)

// Run starts every rank once, hands each its own endpoint of a P-way mesh,
// joins the ranks' errors and closes every endpoint when its rank returns.
func TestRunStartsEveryRankAndClosesOnReturn(t *testing.T) {
	const p = 4
	boom := errors.New("boom")
	var mu sync.Mutex
	eps := make([]*Endpoint, p)
	err := Run(p, Config{DialTimeout: 10 * time.Second}, func(ep *Endpoint) error {
		if ep.Size() != p {
			return fmt.Errorf("rank %d sees size %d, want %d", ep.Rank(), ep.Size(), p)
		}
		mu.Lock()
		dup := eps[ep.Rank()] != nil
		eps[ep.Rank()] = ep
		mu.Unlock()
		if dup {
			return fmt.Errorf("rank %d started twice", ep.Rank())
		}
		// A ring exchange proves the mesh is live before anyone departs.
		next, prev := (ep.Rank()+1)%p, (ep.Rank()+p-1)%p
		if err := ep.Send(next, 1, []byte{byte(ep.Rank())}); err != nil {
			return err
		}
		got, err := ep.Recv(prev, 1)
		if err != nil {
			return err
		}
		if len(got) != 1 || int(got[0]) != prev {
			return fmt.Errorf("rank %d got %v from rank %d", ep.Rank(), got, prev)
		}
		if ep.Rank() == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the failing rank's error", err)
	}
	for r, ep := range eps {
		if ep == nil {
			t.Fatalf("rank %d never ran", r)
		}
		if !ep.isClosed() {
			t.Fatalf("rank %d's endpoint is still open after Run returned", r)
		}
	}
}

// One way a mesh ends: a rank that returns nil stays reachable until every
// rank has returned, while a rank that fails closes its endpoint at once, so
// a peer's later receive from it is a PeerError naming it — the bye of a
// failed process, not of one that finished early.
func TestRunEndsMeshOnce(t *testing.T) {
	const p = 3
	boom := errors.New("boom")
	departures := []struct {
		rank int
		ret  error
	}{{rank: 0, ret: nil}, {rank: 2, ret: boom}}
	returned := make(chan struct{}, len(departures))
	err := Run(p, Config{DialTimeout: 10 * time.Second}, func(ep *Endpoint) error {
		for _, d := range departures {
			if ep.Rank() == d.rank {
				returned <- struct{}{}
				return d.ret
			}
		}
		for range departures {
			<-returned
		}
		for _, d := range departures {
			if d.ret == nil {
				continue
			}
			var perr *comm.PeerError
			if _, _, _, err := ep.RecvAny([]comm.MsgKey{{From: d.rank, Tag: 1}}, time.Now().Add(5*time.Second)); !errors.As(err, &perr) || perr.Rank != d.rank {
				return fmt.Errorf("rank %d failed, but a receive from it reads %v", d.rank, err)
			}
		}
		// Long after the failed rank's bye arrived, a rank that returned nil
		// still takes messages.
		time.Sleep(50 * time.Millisecond)
		for _, d := range departures {
			if d.ret != nil {
				continue
			}
			if err := ep.Send(d.rank, 2, []byte("late")); err != nil {
				return fmt.Errorf("send to rank %d, which returned nil: %v", d.rank, err)
			}
		}
		return nil
	})
	if !errors.Is(err, boom) || err.Error() != boom.Error() {
		t.Fatalf("Run = %v, want only rank 2's error (rank 1's checks must pass)", err)
	}
}

// A mesh that cannot come up fails every rank before fn runs, and each
// failure names the rank it happened on.
func TestRunAttributesSetupFailures(t *testing.T) {
	const p = 3
	err := Run(p, Config{DialTimeout: time.Nanosecond}, func(ep *Endpoint) error {
		return fmt.Errorf("rank %d ran without a mesh", ep.Rank())
	})
	if err == nil {
		t.Fatal("Run succeeded with an expired setup deadline")
	}
	msg := err.Error()
	if strings.Contains(msg, "ran without a mesh") {
		t.Fatalf("fn ran after a failed setup: %v", err)
	}
	for r := 0; r < p; r++ {
		if want := fmt.Sprintf("tcpnet: rank %d mesh setup:", r); !strings.Contains(msg, want) {
			t.Fatalf("error does not attribute rank %d's setup failure (%q):\n%v", r, want, err)
		}
	}
}
