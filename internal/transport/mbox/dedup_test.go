package mbox

import (
	"testing"
	"time"
)

func TestPutSeqDedupWindow(t *testing.T) {
	m := New()
	if acc, err := m.PutSeq(Message{From: 1, Tag: 7, Payload: []byte("a")}, 1); err != nil || !acc {
		t.Fatalf("first seq: accepted=%v err=%v", acc, err)
	}
	// The replayed duplicate is refused; payload ownership stays with the
	// caller, and nothing new becomes retrievable.
	if acc, err := m.PutSeq(Message{From: 1, Tag: 7, Payload: []byte("a-dup")}, 1); err != nil || acc {
		t.Fatalf("duplicate seq: accepted=%v err=%v", acc, err)
	}
	if acc, err := m.PutSeq(Message{From: 1, Tag: 8, Payload: []byte("b")}, 2); err != nil || !acc {
		t.Fatalf("next seq: accepted=%v err=%v", acc, err)
	}
	got, err := get(m, 1, 7, time.Time{})
	if err != nil || string(got) != "a" {
		t.Fatalf("got %q, %v", got, err)
	}
	if got, err := get(m, 1, 8, time.Time{}); err != nil || string(got) != "b" {
		t.Fatalf("got %q, %v", got, err)
	}
	// Exactly one copy of the duplicate tag was stored.
	if _, err := get(m, 1, 7, time.Now().Add(20*time.Millisecond)); err != ErrTimeout {
		t.Fatalf("duplicate was stored: %v", err)
	}
}

func TestPutSeqWindowsArePerSource(t *testing.T) {
	m := New()
	if acc, _ := m.PutSeq(Message{From: 1, Tag: 1, Payload: []byte("x")}, 5); !acc {
		t.Fatal("source 1 seq 5 refused")
	}
	// A different source has its own window: seq 5 is fresh for it.
	if acc, _ := m.PutSeq(Message{From: 2, Tag: 1, Payload: []byte("y")}, 5); !acc {
		t.Fatal("source 2 seq 5 refused")
	}
	if m.lastSeq[1] != 5 || m.lastSeq[2] != 5 || m.lastSeq[3] != 0 {
		t.Fatalf("windows: %d %d %d", m.lastSeq[1], m.lastSeq[2], m.lastSeq[3])
	}
	// An out-of-order older seq is a duplicate even if never seen: the
	// session layer only replays in order, so a lower seq can only be a
	// stale retransmission.
	if acc, _ := m.PutSeq(Message{From: 1, Tag: 2, Payload: []byte("old")}, 3); acc {
		t.Fatal("stale seq accepted")
	}
	// Seq 0 never advances the window (control-frame convention).
	if acc, _ := m.PutSeq(Message{From: 3, Tag: 1, Payload: nil}, 0); acc {
		t.Fatal("seq 0 accepted")
	}
}

func TestPutSeqOnClosedMailbox(t *testing.T) {
	m := New()
	m.Close(nil)
	if acc, err := m.PutSeq(Message{From: 1, Tag: 1}, 1); acc || err == nil {
		t.Fatalf("closed mailbox: accepted=%v err=%v", acc, err)
	}
}
