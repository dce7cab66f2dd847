package comm_test

import (
	"fmt"
	"testing"
	"time"

	"rtcomp/internal/comm"
	"rtcomp/internal/transport/faulty"
)

// TestAgree: the agreement is the commit. Round 0 carries each rank's vote,
// so every rank that enters comes out with the same dead set and the same
// commit, whatever order the votes and pings arrive in.
func TestAgree(t *testing.T) {
	const p, odd = 4, 2
	const round0, round1 = -(1 << 41), -(1 << 41) - 1 // the agreement tags of epoch 0
	// otherBuild plays rank odd as a peer that sends vote in round 0 and the
	// empty suspect set in round 1, as an older build does with vote 0x00.
	otherBuild := func(vote []byte) func(c comm.Comm) error {
		return func(c comm.Comm) error {
			for r := 0; r < p; r++ {
				if r == c.Rank() {
					continue
				}
				if err := c.Send(r, round0, vote); err != nil {
					return err
				}
				if err := c.Send(r, round1, comm.EncodeRankSet(nil)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, tc := range []struct {
		name    string
		plan    *faulty.Plan            // wraps every rank when set
		aborted int                     // the rank whose attempt aborted, or -1
		instead func(c comm.Comm) error // what rank odd runs in place of Agree, when set
		dead    []int
		commit  bool
	}{
		{name: "all_complete", aborted: -1, commit: true},
		{name: "one_aborts", aborted: odd},
		{name: "one_never_enters", aborted: -1, instead: func(comm.Comm) error { return nil }, dead: []int{odd}},
		{name: "older_build_round_0_is_completed", aborted: -1, instead: otherBuild(comm.EncodeRankSet(nil)), commit: true},
		{name: "garbled_round_0_is_an_abort", aborted: -1, instead: otherBuild([]byte{3, 1, 2})},
		{name: "offers_that_do_not_decode_are_an_abort", aborted: -1, instead: otherBuild([]byte{0, 1, 2})},
		{name: "delayed_abort_vote_is_counted", aborted: odd,
			plan: &faulty.Plan{Seed: 1, DelayProb: 1, MaxDelay: 20 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := make([]string, p)
			run(t, p, func(c comm.Comm) error {
				if tc.plan != nil {
					c = faulty.Wrap(c, *tc.plan)
				}
				if c.Rank() == odd && tc.instead != nil {
					return tc.instead(c)
				}
				dead, _, commit, err := comm.Agree(c, comm.NewMembership(p), c.Rank() == tc.aborted, nil, time.Second)
				got[c.Rank()] = fmt.Sprintf("dead %v, commit %v, err %v", dead, commit, err)
				return nil
			})
			want := fmt.Sprintf("dead %v, commit %v, err <nil>", tc.dead, tc.commit)
			for r, g := range got {
				if r == odd && tc.instead != nil {
					continue
				}
				if g != want {
					t.Errorf("rank %d: %s; want %s", r, g, want)
				}
			}
		})
	}
}

// slowTag delays every send under one tag: a link whose latency is well
// inside the agreement timeout.
type slowTag struct {
	comm.Comm
	tag   int
	delay time.Duration
}

func (s slowTag) Send(to, tag int, payload []byte) error {
	if tag == s.tag {
		time.Sleep(s.delay)
	}
	return s.Comm.Send(to, tag, payload)
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

// TestAgreeLateRoundZero: rank 3 dies after its round-0 vote reached ranks
// 1 and 2 but not rank 0. Ranks 1 and 2 enter round 1 as soon as rank 0's
// vote arrives; rank 0 runs its whole round 0 out waiting for rank 3, so its
// round-1 set leaves a full timeout after theirs started, and reaches them
// one link delay later. Round 1 outwaits that, so every survivor agrees rank
// 3 alone is dead; with a round-1 deadline equal to round 0's, ranks 1 and 2
// would condemn rank 0 as well.
func TestAgreeLateRoundZero(t *testing.T) {
	lateRoundZero(t, []byte{0}, "dead [3], offers [], commit false")
}

// TestAgreeJoinLateRoundZero runs the cuts of TestAgreeLateRoundZero with a
// join offer riding rank 3's vote.
//
// In "late", rank 0's round-0 vote reaches ranks 1 and 2 at once but rank 3
// only 0.8 timeouts later, so rank 3 enters round 1 that late, and its
// round-1 sends (each 0.2 timeouts slow) reach ranks 1 and 2 1.2 and 1.4
// timeouts after they entered round 1. Nobody is dead, and every rank must
// certify rank 3's offer; with equal timeouts ranks 1 and 2 would condemn
// rank 3 alone.
//
// In "dead", rank 3 dies after its round-0 vote, offer included, reached
// ranks 1 and 2 but not rank 0, which hears the offer only in their round-1
// sets: every survivor must certify it.
func TestAgreeJoinLateRoundZero(t *testing.T) {
	offer := []comm.JoinHello{{Rank: 2, Nonce: 9}}
	t.Run("late", func(t *testing.T) {
		lateRoundZero(t, nil, fmt.Sprintf("dead [], offers %v, commit true", offer))
	})
	t.Run("dead", func(t *testing.T) {
		lateRoundZero(t, append([]byte{0}, comm.EncodeJoinOffers(offer)...), fmt.Sprintf("dead [3], offers %v, commit false", offer))
	})
}

// lateRoundZero runs the agreement of epoch 0 on four ranks and wants every
// survivor to come out with want. With vote set, rank 3 sends vote in round
// 0 to ranks 1 and 2 only and dies, and rank 0's round-1 sends are slow.
// With vote nil, rank 3 lives and offers {Rank: 2, Nonce: 9}, rank 0's
// round-0 vote reaches it late, and its own round-1 sends are slow.
func lateRoundZero(t *testing.T, vote []byte, want string) {
	t.Helper()
	const p, victim, timeout = 4, 3, 500 * time.Millisecond
	const round0, round1 = -(1 << 41), -(1 << 41) - 1 // the agreement tags of epoch 0
	got := make([]string, p)
	run(t, p, func(c comm.Comm) error {
		var mine []comm.JoinHello
		switch {
		case c.Rank() == victim && vote != nil:
			for _, r := range []int{1, 2} {
				if err := c.Send(r, round0, vote); err != nil {
					return err
				}
			}
			return nil
		case c.Rank() == victim:
			mine = []comm.JoinHello{{Rank: 2, Nonce: 9}}
			c = slowTag{Comm: c, tag: round1, delay: timeout / 5}
		case c.Rank() == 0 && vote != nil:
			c = slowTag{Comm: c, tag: round1, delay: timeout / 5}
		case c.Rank() == 0:
			c = slowTo{Comm: c, to: victim, tag: round0, delay: 4 * timeout / 5}
		}
		dead, certified, commit, err := comm.Agree(c, comm.NewMembership(p), false, mine, timeout)
		got[c.Rank()] = fmt.Sprintf("dead %v, offers %v, commit %v", dead, certified, commit)
		return err
	})
	for r, g := range got {
		if (r != victim || vote == nil) && g != want {
			t.Errorf("rank %d: %s; want %s", r, g, want)
		}
	}
}
