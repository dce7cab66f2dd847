package comm_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/comm"
	"rtcomp/internal/transport/faulty"
	"rtcomp/internal/transport/inproc"
	"rtcomp/internal/transport/tcpnet"
)

// runTCP is inproc.Run over a loopback socket mesh.
func runTCP(p int, fn func(c comm.Comm) error) error {
	lns, addrs, err := tcpnet.ListenLoopback(p)
	if err != nil {
		return err
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep, err := tcpnet.Start(tcpnet.Config{Rank: r, Addrs: addrs, Listener: lns[r], DialTimeout: 20 * time.Second})
			if err != nil {
				errs[r] = err
				return
			}
			defer ep.Close()
			errs[r] = fn(ep)
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TestConcurrentReceiversOnOneEndpoint pins the part of the Comm contract
// the pipelined compositor stands on, per fabric: several goroutines receive
// on one endpoint at once, each over its own keys plus one key they all name.
// Every message must reach exactly one caller that asked for it, the shared
// one exactly one of them, and a deadline on keys nobody sends must expire on
// time while the other callers' traffic keeps arriving.
func TestConcurrentReceiversOnOneEndpoint(t *testing.T) {
	const receivers, perReceiver, shared, never = 4, 8, 9999, 7777
	own := func(g, i int) int { return g*100 + i }
	program := func(c comm.Comm) error {
		if c.Rank() == 1 {
			for i := 0; i < perReceiver; i++ {
				for g := 0; g < receivers; g++ {
					if err := c.Send(0, own(g, i), []byte{byte(g), byte(i)}); err != nil {
						return err
					}
				}
				if i == 0 {
					if err := c.Send(0, shared, []byte("shared")); err != nil {
						return err
					}
				}
				time.Sleep(2 * time.Millisecond) // keep traffic flowing past the deadline below
			}
			// Hold the endpoint open until rank 0 has finished looking.
			_, err := c.Recv(0, shared)
			return err
		}
		var sharedGot, sharedMissed int
		var mu sync.Mutex
		errs := make([]error, receivers+1)
		var wg sync.WaitGroup
		for g := 0; g < receivers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				want := map[comm.MsgKey]bool{}
				for i := 0; i < perReceiver; i++ {
					want[comm.MsgKey{From: 1, Tag: own(g, i)}] = true
				}
				gotShared := false
				for len(want) > 0 {
					keys := make([]comm.MsgKey, 0, len(want)+1)
					for k := range want {
						keys = append(keys, k)
					}
					if !gotShared {
						keys = append(keys, comm.MsgKey{From: 1, Tag: shared})
					}
					from, tag, payload, err := c.RecvAny(keys, time.Now().Add(10*time.Second))
					if err != nil {
						errs[g] = fmt.Errorf("receiver %d: %w", g, err)
						return
					}
					k := comm.MsgKey{From: from, Tag: tag}
					switch {
					case tag == shared && !gotShared && string(payload) == "shared":
						gotShared = true
					case want[k] && len(payload) == 2 && own(int(payload[0]), int(payload[1])) == tag:
						delete(want, k)
					default:
						errs[g] = fmt.Errorf("receiver %d was handed (%d, %d) %q: not its message, or twice", g, from, tag, payload)
						return
					}
				}
				if !gotShared {
					// Everything was sent before this receiver's last message: the
					// shared one is some other receiver's by now.
					_, _, _, err := c.RecvAny([]comm.MsgKey{{From: 1, Tag: shared}}, time.Now().Add(30*time.Millisecond))
					if !errors.Is(err, comm.ErrDeadline) {
						errs[g] = fmt.Errorf("receiver %d: second look at the shared key: %v, want a deadline", g, err)
						return
					}
				}
				mu.Lock()
				if gotShared {
					sharedGot++
				} else {
					sharedMissed++
				}
				mu.Unlock()
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			_, _, _, err := c.RecvAny([]comm.MsgKey{{From: 1, Tag: never}}, time.Now().Add(8*time.Millisecond))
			if d := time.Since(t0); !errors.Is(err, comm.ErrDeadline) || d < 8*time.Millisecond || d > 2*time.Second {
				errs[receivers] = fmt.Errorf("deadline on an unsent key: %v after %v", err, d)
			}
		}()
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		if sharedGot != 1 || sharedMissed != receivers-1 {
			return fmt.Errorf("the shared message reached %d receivers and passed %d by, want 1 and %d", sharedGot, sharedMissed, receivers-1)
		}
		return c.Send(1, shared, nil)
	}
	for _, fabric := range []struct {
		name string
		run  func(fn func(c comm.Comm) error) error
	}{
		{"inproc", func(fn func(c comm.Comm) error) error { return inproc.Run(2, fn) }},
		{"tcpnet", func(fn func(c comm.Comm) error) error { return runTCP(2, fn) }},
		{"faulty", func(fn func(c comm.Comm) error) error {
			return inproc.Run(2, func(c comm.Comm) error { return fn(faulty.Wrap(c, faulty.Plan{})) })
		}},
	} {
		t.Run(fabric.name, func(t *testing.T) {
			if err := fabric.run(program); err != nil {
				t.Fatal(err)
			}
		})
	}
}
