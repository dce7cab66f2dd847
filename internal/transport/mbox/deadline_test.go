package mbox

import (
	"errors"
	"testing"
	"time"
)

func TestGetUntilExpires(t *testing.T) {
	m := New()
	start := time.Now()
	_, err := m.GetUntil(0, 1, time.Now().Add(50*time.Millisecond))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("deadline honoured poorly: waited %v", elapsed)
	}
}

func TestGetAnyUntilExpires(t *testing.T) {
	m := New()
	_, err := m.GetAnyUntil([]Key{{From: 0, Tag: 1}, {From: 2, Tag: 3}}, time.Now().Add(50*time.Millisecond))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
}

func TestGetUntilDeliversBeforeDeadline(t *testing.T) {
	m := New()
	go func() {
		time.Sleep(20 * time.Millisecond)
		m.Put(Message{From: 0, Tag: 1, Payload: []byte("in time")})
	}()
	payload, err := m.GetUntil(0, 1, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "in time" {
		t.Fatalf("payload %q", payload)
	}
}

func TestGetUntilAlreadyExpired(t *testing.T) {
	// A deadline in the past must fail immediately even when a message is
	// not present, without blocking at all.
	m := New()
	start := time.Now()
	_, err := m.GetUntil(0, 1, time.Now().Add(-time.Second))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("expired deadline still blocked %v", elapsed)
	}
}

func TestGetUntilPrefersMessageOverExpiredDeadline(t *testing.T) {
	// A message already in the box is delivered even if the deadline has
	// passed: the deadline bounds waiting, not matching.
	m := New()
	m.Put(Message{From: 0, Tag: 1, Payload: []byte("early")})
	payload, err := m.GetUntil(0, 1, time.Now().Add(-time.Second))
	if err != nil {
		t.Fatalf("message present but GetUntil returned %v", err)
	}
	if string(payload) != "early" {
		t.Fatalf("payload %q", payload)
	}
}

func TestZeroDeadlineWaitsForever(t *testing.T) {
	m := New()
	go func() {
		time.Sleep(50 * time.Millisecond)
		m.Put(Message{From: 3, Tag: 9, Payload: []byte("eventually")})
	}()
	payload, err := m.GetUntil(3, 9, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "eventually" {
		t.Fatalf("payload %q", payload)
	}
}

func TestTimeoutDoesNotConsume(t *testing.T) {
	// A timed-out wait must leave later-arriving messages intact for the
	// next receive.
	m := New()
	if _, err := m.GetUntil(0, 1, time.Now().Add(20*time.Millisecond)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	m.Put(Message{From: 0, Tag: 1, Payload: []byte("second try")})
	payload, err := m.GetUntil(0, 1, time.Now().Add(time.Second))
	if err != nil || string(payload) != "second try" {
		t.Fatalf("got %q, %v", payload, err)
	}
}

func TestCloseBeatsDeadline(t *testing.T) {
	m := New()
	cause := errors.New("fabric torn down")
	go func() {
		time.Sleep(20 * time.Millisecond)
		m.Close(cause)
	}()
	_, err := m.GetUntil(0, 1, time.Now().Add(5*time.Second))
	if !errors.Is(err, cause) {
		t.Fatalf("got %v, want the close cause", err)
	}
}

// A timed receive whose message is already queued allocates nothing: it
// never waits, so it arms no deadline timer. One with nothing to take still
// times out on time — also when a message for another key wakes it first,
// after which it waits again on the timer it already armed.
func TestTimedGetArmsTimerOnlyToWait(t *testing.T) {
	m := New()
	deadline := time.Now().Add(time.Minute)
	keys := []Key{{From: 2, Tag: 5}, {From: 1, Tag: 7}}
	msg := Message{From: 1, Tag: 7, Payload: []byte("queued")}
	receive := func() {
		m.Put(msg)
		if _, err := m.GetMsgUntil(1, 7, deadline); err != nil {
			t.Fatal(err)
		}
		m.Put(msg)
		if _, err := m.GetAnyUntil(keys, deadline); err != nil {
			t.Fatal(err)
		}
	}
	receive() // grows the queue's backing array once
	if n := testing.AllocsPerRun(100, receive); n != 0 {
		t.Fatalf("a timed receive of a queued message allocates %.1f times a pair", n)
	}

	const wait = 30 * time.Millisecond
	for name, get := range map[string]func(time.Time) error{
		"GetMsgUntil": func(dl time.Time) error { _, err := m.GetMsgUntil(1, 7, dl); return err },
		"GetAnyUntil": func(dl time.Time) error { _, err := m.GetAnyUntil(keys, dl); return err },
	} {
		go func() {
			time.Sleep(wait / 3)
			m.Put(Message{From: 1, Tag: 8})
		}()
		start := time.Now()
		if err := get(start.Add(wait)); !errors.Is(err, ErrTimeout) {
			t.Fatalf("%s with nothing to take: got %v, want ErrTimeout", name, err)
		}
		if elapsed := time.Since(start); elapsed < wait || elapsed > 5*time.Second {
			t.Fatalf("%s: a %v deadline returned after %v", name, wait, elapsed)
		}
	}
}
