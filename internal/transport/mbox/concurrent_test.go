package mbox

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentGetAny is the mailbox half of the concurrent-receiver
// contract (comm.Comm): several goroutines wait in GetAnyUntil at once, each
// over its own keys plus one key they all name. Matching happens under the
// mailbox lock, so every message goes to exactly one waiter that asked for
// it — the shared one to exactly one of them — and a waiter whose keys never
// come times out on its own deadline while the others are being served.
func TestConcurrentGetAny(t *testing.T) {
	const waiters, perWaiter, shared, never = 4, 16, 9999, 7777
	m := New()
	var sharedGot int
	var mu sync.Mutex
	errs := make([]error, waiters+1)
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := map[Key]bool{}
			for i := 0; i < perWaiter; i++ {
				want[Key{From: 1, Tag: g*100 + i}] = true
			}
			for len(want) > 0 {
				keys := []Key{{From: 1, Tag: shared}}
				for k := range want {
					keys = append(keys, k)
				}
				msg, err := m.GetAnyUntil(keys, time.Now().Add(10*time.Second))
				k := Key{From: msg.From, Tag: msg.Tag}
				switch {
				case err != nil:
					errs[g] = err
					return
				case msg.Tag == shared:
					mu.Lock()
					sharedGot++
					mu.Unlock()
				case want[k] && len(msg.Payload) == 1 && int(msg.Payload[0]) == g:
					delete(want, k)
				default:
					errs[g] = fmt.Errorf("waiter %d was handed (%d, %d): not its message, or twice", g, msg.From, msg.Tag)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		t0 := time.Now()
		_, err := m.GetAnyUntil([]Key{{From: 1, Tag: never}}, t0.Add(8*time.Millisecond))
		if d := time.Since(t0); !errors.Is(err, ErrTimeout) || d < 8*time.Millisecond || d > 2*time.Second {
			errs[waiters] = fmt.Errorf("deadline on an unsent key: %v after %v", err, d)
		}
	}()
	for i := 0; i < perWaiter; i++ {
		for g := 0; g < waiters; g++ {
			if err := m.Put(Message{From: 1, Tag: g*100 + i, Payload: []byte{byte(g)}}); err != nil {
				t.Fatal(err)
			}
		}
		if i == 0 {
			if err := m.Put(Message{From: 1, Tag: shared}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Millisecond) // keep traffic flowing past the deadline above
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if sharedGot != 1 {
		t.Fatalf("the shared message was delivered %d times, want once", sharedGot)
	}
}
