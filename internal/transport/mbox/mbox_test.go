package mbox

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// get is a one-key receive: GetAnyUntil with a single key, the way
// Port.RecvTimeout asks for one message.
func get(m *Mailbox, from, tag int, deadline time.Time) ([]byte, error) {
	msg, err := m.GetAnyUntil([]Key{{From: from, Tag: tag}}, deadline)
	return msg.Payload, err
}

func TestPutGetMatch(t *testing.T) {
	m := New()
	if err := m.Put(Message{From: 1, Tag: 7, Payload: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	got, err := get(m, 1, 7, time.Time{})
	if err != nil || string(got) != "a" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestOutOfOrderMatching(t *testing.T) {
	m := New()
	m.Put(Message{From: 1, Tag: 1, Payload: []byte("first")})
	m.Put(Message{From: 2, Tag: 1, Payload: []byte("second")})
	m.Put(Message{From: 1, Tag: 2, Payload: []byte("third")})
	if got, _ := get(m, 1, 2, time.Time{}); string(got) != "third" {
		t.Fatalf("got %q", got)
	}
	if got, _ := get(m, 2, 1, time.Time{}); string(got) != "second" {
		t.Fatalf("got %q", got)
	}
	if got, _ := get(m, 1, 1, time.Time{}); string(got) != "first" {
		t.Fatalf("got %q", got)
	}
}

func TestGetBlocksUntilPut(t *testing.T) {
	m := New()
	done := make(chan []byte)
	go func() {
		got, _ := get(m, 3, 9, time.Time{})
		done <- got
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Get returned before Put")
	default:
	}
	m.Put(Message{From: 3, Tag: 9, Payload: []byte("x")})
	if got := <-done; string(got) != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	m := New()
	cause := errors.New("boom")
	done := make(chan error)
	go func() {
		_, err := get(m, 0, 0, time.Time{})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	m.Close(cause)
	if err := <-done; !errors.Is(err, cause) {
		t.Fatalf("err = %v, want %v", err, cause)
	}
	if err := m.Put(Message{}); !errors.Is(err, cause) {
		t.Fatalf("Put after close = %v", err)
	}
}

func TestCloseNilCause(t *testing.T) {
	m := New()
	m.Close(nil)
	if _, err := get(m, 0, 0, time.Time{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	m := New()
	const n = 200
	var wg sync.WaitGroup
	for from := 0; from < 4; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for tag := 0; tag < n; tag++ {
				m.Put(Message{From: from, Tag: tag, Payload: []byte{byte(from), byte(tag)}})
			}
		}(from)
	}
	var got sync.Map
	var rg sync.WaitGroup
	for from := 0; from < 4; from++ {
		rg.Add(1)
		go func(from int) {
			defer rg.Done()
			for tag := 0; tag < n; tag++ {
				p, err := get(m, from, tag, time.Time{})
				if err != nil || len(p) != 2 || p[0] != byte(from) || p[1] != byte(tag) {
					t.Errorf("Get(%d,%d) = %v, %v", from, tag, p, err)
					return
				}
				got.Store([2]int{from, tag}, true)
			}
		}(from)
	}
	wg.Wait()
	rg.Wait()
	count := 0
	got.Range(func(_, _ any) bool { count++; return true })
	if count != 4*n {
		t.Fatalf("delivered %d messages, want %d", count, 4*n)
	}
}

func TestGetAnyArrivalOrder(t *testing.T) {
	m := New()
	m.Put(Message{From: 2, Tag: 9, Payload: []byte("second-arrived-first")})
	m.Put(Message{From: 1, Tag: 5, Payload: []byte("first")})
	keys := []Key{{From: 1, Tag: 5}, {From: 2, Tag: 9}}
	got, err := m.GetAnyUntil(keys, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 2 || got.Tag != 9 {
		t.Fatalf("GetAny returned (%d,%d), want the first arrival (2,9)", got.From, got.Tag)
	}
	got, err = m.GetAnyUntil(keys, time.Time{})
	if err != nil || got.From != 1 {
		t.Fatalf("second GetAny = %+v, %v", got, err)
	}
}

func TestGetAnyIgnoresUnmatched(t *testing.T) {
	m := New()
	m.Put(Message{From: 3, Tag: 3, Payload: []byte("noise")})
	done := make(chan Message, 1)
	go func() {
		msg, _ := m.GetAnyUntil([]Key{{From: 1, Tag: 1}}, time.Time{})
		done <- msg
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("GetAny matched an unrequested message")
	default:
	}
	m.Put(Message{From: 1, Tag: 1, Payload: []byte("yes")})
	if msg := <-done; string(msg.Payload) != "yes" {
		t.Fatalf("got %q", msg.Payload)
	}
	// The noise message is still retrievable.
	if got, err := get(m, 3, 3, time.Time{}); err != nil || string(got) != "noise" {
		t.Fatalf("noise lost: %q, %v", got, err)
	}
}

func TestGetAnyFailsOnDeadSource(t *testing.T) {
	m := New()
	m.Fail(4, errors.New("gone"))
	if _, err := m.GetAnyUntil([]Key{{From: 4, Tag: 0}}, time.Time{}); err == nil {
		t.Fatal("GetAny on dead source did not fail")
	}
	// A live alternative still delivers.
	done := make(chan error, 1)
	go func() {
		_, err := m.GetAnyUntil([]Key{{From: 4, Tag: 0}, {From: 5, Tag: 0}}, time.Time{})
		done <- err
	}()
	// The dead source poisons the whole wait set (conservative), so this
	// returns the error rather than blocking forever.
	if err := <-done; err == nil {
		t.Fatal("mixed wait set with dead source did not fail")
	}
}
