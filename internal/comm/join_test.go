package comm_test

import (
	"fmt"
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

// TestAgreeCertifiesOffers: the offers ride the agreement's votes, so every
// rank certifies the same offers, whoever drained the hellos.
func TestAgreeCertifiesOffers(t *testing.T) {
	const p = 4
	for _, tc := range []struct {
		name string
		mine map[int][]comm.JoinHello // the hellos each rank drained
		want []comm.JoinHello
	}{
		{"only_rank_1_drained", map[int][]comm.JoinHello{1: {{Rank: 2, Nonce: 9}}}, []comm.JoinHello{{Rank: 2, Nonce: 9}}},
		// Two ranks drained hellos of two incarnations for one slot: the
		// higher nonce wins.
		{"higher_nonce_wins", map[int][]comm.JoinHello{0: {{Rank: 3, Nonce: 5}}, 2: {{Rank: 3, Nonce: 4}}},
			[]comm.JoinHello{{Rank: 3, Nonce: 5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := make([]string, p)
			run(t, p, func(c comm.Comm) error {
				dead, certified, commit, err := comm.Agree(c, comm.NewMembership(p), false, tc.mine[c.Rank()], 2*time.Second)
				got[c.Rank()] = fmt.Sprintf("dead %v, offers %v, commit %v, err %v", dead, certified, commit, err)
				return nil
			})
			want := fmt.Sprintf("dead [], offers %v, commit true, err <nil>", tc.want)
			for r, g := range got {
				if g != want {
					t.Errorf("rank %d: %s; want %s", r, g, want)
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
