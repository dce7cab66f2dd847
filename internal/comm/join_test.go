package comm_test

import (
	"slices"
	"testing"
	"time"

	"rtcomp/internal/comm"
)

func TestJoinHelloRoundTrip(t *testing.T) {
	h := comm.JoinHello{Rank: 5, Nonce: 0xDEADBEEFCAFE}
	got, err := comm.DecodeJoinHello(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
	for _, bad := range [][]byte{nil, {5}, h.Encode()[:6], append(h.Encode(), 0)} {
		if _, err := comm.DecodeJoinHello(bad); err == nil {
			t.Fatalf("malformed hello %v accepted", bad)
		}
	}
}

func TestJoinOffersRoundTrip(t *testing.T) {
	offers := []comm.JoinHello{{Rank: 2, Nonce: 7}, {Rank: 4, Nonce: 1}}
	got, err := comm.DecodeJoinOffers(comm.EncodeJoinOffers(offers))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != offers[0] || got[1] != offers[1] {
		t.Fatalf("round trip: %+v", got)
	}
	enc := comm.EncodeJoinOffers(offers)
	if _, err := comm.DecodeJoinOffers(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated offers accepted")
	}
}

func TestJoinAdmitRoundTrip(t *testing.T) {
	a := comm.JoinAdmit{Nonce: 99, Epoch: 3, Dead: []int{1, 4}}
	got, err := comm.DecodeJoinAdmit(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Nonce != 99 || got.Epoch != 3 || len(got.Dead) != 2 || got.Dead[1] != 4 {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := comm.DecodeJoinAdmit(a.Encode()[:5]); err == nil {
		t.Fatal("truncated admit accepted")
	}
}

func TestMembershipReviveAndResume(t *testing.T) {
	m := comm.NewMembership(4)
	m.Advance([]int{2})
	if m.Alive(2) || m.Epoch() != 1 {
		t.Fatalf("advance: alive(2)=%v epoch=%d", m.Alive(2), m.Epoch())
	}
	m.Revive([]int{2})
	if !m.Alive(2) || m.Epoch() != 2 || m.NumDead() != 0 {
		t.Fatalf("revive: alive(2)=%v epoch=%d dead=%d", m.Alive(2), m.Epoch(), m.NumDead())
	}
	r := comm.Resume(6, 5, []int{1, 3})
	if r.Size() != 6 || r.Epoch() != 5 || r.Alive(1) || r.Alive(3) || !r.Alive(0) {
		t.Fatalf("resume: %+v", r)
	}
}

// TestAgreeJoinUnionsOffers: only rank 1 saw the hello, yet after the
// two-round agreement every rank must certify the identical offer set.
func TestAgreeJoinUnionsOffers(t *testing.T) {
	p := 4
	results := make([][]comm.JoinHello, p)
	run(t, p, func(c comm.Comm) error {
		m := comm.NewMembership(p)
		m.Advance(nil) // epoch 1, nobody dead — isolates the join tags
		var mine []comm.JoinHello
		if c.Rank() == 1 {
			mine = []comm.JoinHello{{Rank: 2, Nonce: 9}}
		}
		got, err := comm.AgreeJoin(c, m, mine, 2*time.Second)
		results[c.Rank()] = got
		return err
	})
	for r, got := range results {
		if len(got) != 1 || got[0].Rank != 2 || got[0].Nonce != 9 {
			t.Fatalf("rank %d certified %+v", r, got)
		}
	}
}

// TestAgreeJoinMergesContributors: two ranks drained hellos of the same
// joiner from two incarnations; the union keeps the higher nonce.
func TestAgreeJoinMergesContributors(t *testing.T) {
	p := 4
	results := make([][]comm.JoinHello, p)
	run(t, p, func(c comm.Comm) error {
		m := comm.NewMembership(p)
		m.Advance(nil)
		var mine []comm.JoinHello
		switch c.Rank() {
		case 0:
			mine = []comm.JoinHello{{Rank: 3, Nonce: 5}}
		case 2:
			mine = []comm.JoinHello{{Rank: 3, Nonce: 4}}
		}
		got, err := comm.AgreeJoin(c, m, mine, 2*time.Second)
		results[c.Rank()] = got
		return err
	})
	for r, got := range results {
		if len(got) != 1 || got[0].Rank != 3 || got[0].Nonce != 5 {
			t.Fatalf("rank %d certified %+v", r, got)
		}
	}
}

// TestAgreeJoinAbortsOnSilence: a rank that never participates must turn the
// join into a unanimous abort (nil offers) on the ranks that do.
func TestAgreeJoinAbortsOnSilence(t *testing.T) {
	p := 3
	results := make([][]comm.JoinHello, p)
	aborts := make([]bool, p)
	run(t, p, func(c comm.Comm) error {
		if c.Rank() == 2 {
			return nil // silent: never joins the agreement
		}
		m := comm.NewMembership(p)
		m.Advance(nil)
		mine := []comm.JoinHello{{Rank: 0, Nonce: 1}}
		got, err := comm.AgreeJoin(c, m, mine, 300*time.Millisecond)
		results[c.Rank()] = got
		aborts[c.Rank()] = got == nil && err == nil
		return err
	})
	for _, r := range []int{0, 1} {
		if !aborts[r] {
			t.Fatalf("rank %d did not abort: %+v", r, results[r])
		}
	}
}

// slowTo delays one rank's sends under one tag to one peer.
type slowTo struct {
	comm.Comm
	to, tag int
	delay   time.Duration
}

func (s slowTo) Send(to, tag int, payload []byte) error {
	if to == s.to && tag == s.tag {
		time.Sleep(s.delay)
	}
	return s.Comm.Send(to, tag, payload)
}

// TestAgreeJoinLateRoundZero mirrors TestAgreeLateRoundZero for the join
// agreement, whose round 1 also waits twice the timeout.
//
// In "late", rank 0's round-0 offers reach ranks 1 and 2 at once but rank 3
// only 0.8 timeouts later, so rank 3 enters round 1 that late, and its
// round-1 sends (each 0.2 timeouts slow) reach ranks 1 and 2 1.2 and 1.4
// timeouts after they entered round 1. Every survivor must certify rank 3's
// offer; with a round-1 deadline equal to round 0's, ranks 1 and 2 would
// abort alone while ranks 0 and 3 certify it, and only rank 0 would admit.
//
// In "dead", rank 3 dies after its round-0 offer reached ranks 1 and 2 but
// not rank 0: every survivor must abort the join alike.
func TestAgreeJoinLateRoundZero(t *testing.T) {
	const p, timeout = 4, 500 * time.Millisecond
	const round0, round1 = -(1 << 44) - 2, -(1 << 44) - 3 // the join agreement tags of epoch 1
	offer := []comm.JoinHello{{Rank: 2, Nonce: 9}}
	for _, tc := range []struct {
		name  string
		dead  bool
		ranks int // the survivors: ranks [0, ranks)
		want  []comm.JoinHello
	}{
		{"late", false, p, offer},
		{"dead", true, p - 1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := make([][]comm.JoinHello, p)
			run(t, p, func(c comm.Comm) error {
				m := comm.NewMembership(p)
				m.Advance(nil)
				var mine []comm.JoinHello
				switch c.Rank() {
				case 0:
					if !tc.dead {
						c = slowTo{Comm: c, to: 3, tag: round0, delay: 4 * timeout / 5}
					}
				case 3:
					mine = offer
					if tc.dead {
						for _, r := range []int{1, 2} {
							if err := c.Send(r, round0, append([]byte{0}, comm.EncodeJoinOffers(mine)...)); err != nil {
								return err
							}
						}
						return nil
					}
					c = slowTag{Comm: c, tag: round1, delay: timeout / 5}
				}
				certified, err := comm.AgreeJoin(c, m, mine, timeout)
				got[c.Rank()] = certified
				return err
			})
			for r := 0; r < tc.ranks; r++ {
				if !slices.Equal(got[r], tc.want) {
					t.Errorf("rank %d certified %v, want %v", r, got[r], tc.want)
				}
			}
		})
	}
}

// FuzzJoinHelloDecode: the hello decoder must never panic and every accepted
// hello must round-trip.
func FuzzJoinHelloDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(comm.JoinHello{Rank: 3, Nonce: 77}.Encode())
	f.Fuzz(func(t *testing.T, payload []byte) {
		h, err := comm.DecodeJoinHello(payload)
		if err != nil {
			return
		}
		got, err := comm.DecodeJoinHello(h.Encode())
		if err != nil || got != h {
			t.Fatalf("re-decode of accepted hello failed: %+v %v", h, err)
		}
	})
}

// FuzzJoinAdmitDecode: the admit decoder must never panic on arbitrary
// payloads (the joiner feeds it raw wire bytes).
func FuzzJoinAdmitDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(comm.JoinAdmit{Nonce: 1, Epoch: 2, Dead: []int{0}}.Encode())
	f.Fuzz(func(t *testing.T, payload []byte) {
		a, err := comm.DecodeJoinAdmit(payload)
		if err != nil {
			return
		}
		if _, err := comm.DecodeJoinAdmit(a.Encode()); err != nil {
			t.Fatalf("re-decode of accepted admit failed: %+v %v", a, err)
		}
	})
}
