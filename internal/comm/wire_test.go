package comm_test

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"rtcomp/internal/comm"
)

// hugeCount is a count of 2^63 spelled as a ten-byte varint: what a decoder
// that sizes an allocation by a count it has only been told must survive.
var hugeCount = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}

// TestWireGolden pins the control-plane formats of this package to bytes:
// today's encoder writes them and today's decoder reads them back, so a mesh
// of mixed builds still understands itself. The rank set and JOIN-HELLO are
// what an earlier build's encoders wrote (commit 7885e44); the offers and
// the ADMIT are that build's formats without their commit lists, which an
// older build cannot read, so its join fails closed. A suspect set without
// offers is the bare rank set; with offers it is the rank set and the offer
// list, which an older build reads as a garbled set.
func TestWireGolden(t *testing.T) {
	offers := []comm.JoinHello{{Rank: 2, Nonce: 7}, {Rank: 4, Nonce: 1 << 40}}
	admit := comm.JoinAdmit{Nonce: 99, Epoch: 300, Dead: []int{1, 4}}
	type suspectSet struct {
		suspects []int
		offers   []comm.JoinHello
	}
	decodeSuspects := func(b []byte) (any, error) {
		s, o, err := comm.DecodeSuspectSet(b)
		return suspectSet{s, o}, err
	}
	for _, row := range []struct {
		name   string
		golden string
		value  any
		encode func() []byte
		decode func([]byte) (any, error)
	}{
		{"rank set", "040003ac02f0a204", []int{0, 3, 300, 70000},
			func() []byte { return comm.EncodeRankSet([]int{0, 3, 300, 70000}) },
			func(b []byte) (any, error) { return comm.DecodeRankSet(b) }},
		{"suspect set", "040003ac02f0a204", suspectSet{suspects: []int{0, 3, 300, 70000}},
			func() []byte { return comm.EncodeSuspectSet([]int{0, 3, 300, 70000}, nil) }, decodeSuspects},
		{"suspect set with offers", "010302020000000000000007040000010000000000", suspectSet{[]int{3}, offers},
			func() []byte { return comm.EncodeSuspectSet([]int{3}, offers) }, decodeSuspects},
		{"JOIN-HELLO", "ac020000deadbeefcafe", comm.JoinHello{Rank: 300, Nonce: 0xDEADBEEFCAFE},
			comm.JoinHello{Rank: 300, Nonce: 0xDEADBEEFCAFE}.Encode,
			func(b []byte) (any, error) { return comm.DecodeJoinHello(b) }},
		{"JOIN-OFFERS", "02020000000000000007040000010000000000", offers,
			func() []byte { return comm.EncodeJoinOffers(offers) },
			func(b []byte) (any, error) { return comm.DecodeJoinOffers(b) }},
		{"JOIN-ADMIT", "0000000000000063ac02020104", admit, admit.Encode,
			func(b []byte) (any, error) { return comm.DecodeJoinAdmit(b) }},
		{"JOIN-ADMIT, nobody dead", "00000000000000010200", comm.JoinAdmit{Nonce: 1, Epoch: 2},
			comm.JoinAdmit{Nonce: 1, Epoch: 2}.Encode,
			func(b []byte) (any, error) { return comm.DecodeJoinAdmit(b) }},
	} {
		golden, err := hex.DecodeString(row.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := row.encode(); !bytes.Equal(got, golden) {
			t.Errorf("%s: encodes to %x, the format is %x", row.name, got, golden)
		}
		got, err := row.decode(golden)
		if err != nil || !reflect.DeepEqual(got, row.value) {
			t.Errorf("%s: golden bytes decode to %+v, %v; want %+v", row.name, got, err, row.value)
		}
		if _, err := row.decode(append(golden, 0)); err == nil {
			t.Errorf("%s: a trailing byte was accepted", row.name)
		}
		if _, err := row.decode(golden[:len(golden)-1]); err == nil {
			t.Errorf("%s: a truncated message was accepted", row.name)
		}
	}
}

// TestRankSetRejectsHugeCount: a rank set's count is bounded by the bytes
// left, not believed. Ten bytes declaring 2^63 ranks used to size an
// allocation (a makeslice panic in the receiving rank); now they are a
// garbled set like any other — which in an agreement round still proves the
// sender alive and convicts nobody, and in round 0 is a vote to abort.
func TestRankSetRejectsHugeCount(t *testing.T) {
	for _, payload := range [][]byte{hugeCount, {200, 1, 2}, {3, 1, 2}} {
		if set, err := comm.DecodeRankSet(payload); err == nil {
			t.Errorf("rank set % x accepted as %v", payload, set)
		}
	}
	// Rank 1 answers both agreement rounds of rank 0 with the huge count.
	run(t, 2, func(c comm.Comm) error {
		m := comm.NewMembership(2)
		if c.Rank() == 1 {
			for _, tag := range []int{-(1 << 41), -(1 << 41) - 1} { // the agreement rounds of epoch 0
				if err := c.Send(0, tag, hugeCount); err != nil {
					return err
				}
				if _, _, _, err := c.RecvAny([]comm.MsgKey{{From: 0, Tag: tag}}, time.Now().Add(5*time.Second)); err != nil {
					return err
				}
			}
			return nil
		}
		dead, _, commit, err := comm.Agree(c, m, false, nil, 5*time.Second)
		if err != nil || len(dead) != 0 || commit {
			t.Errorf("agreement against a garbling peer: dead %v, commit %v, err %v; want nobody, no commit, nil", dead, commit, err)
		}
		return nil
	})
}

// FuzzRankSetDecode: the rank-set decoder never panics, and an accepted set
// is exactly what re-encodes to the bytes it was read from.
func FuzzRankSetDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(hugeCount)
	f.Add(comm.EncodeRankSet([]int{0, 3, 300, 70000}))
	f.Add([]byte{2, 0x80, 0x00, 1}) // an overlong zero
	f.Fuzz(func(t *testing.T, payload []byte) {
		set, err := comm.DecodeRankSet(payload)
		if err != nil {
			return
		}
		if re := comm.EncodeRankSet(set); !bytes.Equal(re, payload) {
			t.Fatalf("accepted % x, which re-encodes to % x", payload, re)
		}
	})
}

// FuzzJoinOffersDecode: the offer-list decoder — the tail of every
// survivor's round-0 vote that carries offers — never panics, and an accepted list is exactly what
// re-encodes to the bytes it was read from.
func FuzzJoinOffersDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(hugeCount)
	f.Add(comm.EncodeJoinOffers([]comm.JoinHello{{Rank: 2, Nonce: 7}, {Rank: 4, Nonce: 1 << 40}}))
	f.Add([]byte{1, 2, 0, 0, 0, 0, 0, 0, 0, 7, 0}) // an offer with the commit count older builds append
	f.Add([]byte{0x80, 0x00})                      // no offers, spelled overlong
	f.Fuzz(func(t *testing.T, payload []byte) {
		offers, err := comm.DecodeJoinOffers(payload)
		if err != nil {
			return
		}
		if re := comm.EncodeJoinOffers(offers); !bytes.Equal(re, payload) {
			t.Fatalf("accepted % x, which re-encodes to % x", payload, re)
		}
	})
}

// FuzzAgreeRound1Decode: the decoder of Agree's round-1 message — a suspect
// set, then the offers when there are any — never panics, and an accepted
// message is exactly what re-encodes to the bytes it was read from.
func FuzzAgreeRound1Decode(f *testing.F) {
	f.Add([]byte{})
	f.Add(hugeCount)
	f.Add(comm.EncodeSuspectSet([]int{0, 3}, nil))
	f.Add(comm.EncodeSuspectSet([]int{3}, []comm.JoinHello{{Rank: 2, Nonce: 7}, {Rank: 4, Nonce: 1 << 40}}))
	f.Add([]byte{1, 3, 0}) // an empty offer list spelled out
	f.Fuzz(func(t *testing.T, payload []byte) {
		suspects, offers, err := comm.DecodeSuspectSet(payload)
		if err != nil {
			return
		}
		if re := comm.EncodeSuspectSet(suspects, offers); !bytes.Equal(re, payload) {
			t.Fatalf("accepted % x, which re-encodes to % x", payload, re)
		}
	})
}
