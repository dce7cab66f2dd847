package schedule

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRankPlanIsUnionOfTilePlans pins the whole-rank plan to the per-tile
// plans it sits beside: for the paper's five methods, P = 2..9, original and
// repaired schedules, every step of RankPlan(r) carries the step's halvings
// and exactly the sends and receives of TilePlans(r)[t] at that step, over
// all tiles, with each tile's transfers in their tile-plan order.
func TestRankPlanIsUnionOfTilePlans(t *testing.T) {
	methods := []struct {
		name  string
		build func(p int) (*Schedule, error)
	}{
		{"bs", BinarySwap},
		{"pp", Pipeline},
		{"ds", DirectSend},
		{"nrt", func(p int) (*Schedule, error) { return NRT(p, 4) }},
		{"2nrt", func(p int) (*Schedule, error) { return TwoNRT(p, 4) }},
	}
	perTile := func(trs []Transfer, tile int) []Transfer {
		var out []Transfer
		for _, tr := range trs {
			if tr.Block.Tile == tile {
				out = append(out, tr)
			}
		}
		return out
	}
	check := func(t *testing.T, s *Schedule) {
		t.Helper()
		for r := 0; r < s.P; r++ {
			plan, tiles := s.RankPlan(r), s.TilePlans(r)
			if len(plan) != len(s.Steps) {
				t.Fatalf("rank %d: plan has %d steps, schedule %d", r, len(plan), len(s.Steps))
			}
			for si, ts := range plan {
				if ts.Step != si || ts.Pre != s.Steps[si].PreHalvings || ts.Post != s.Steps[si].PostHalvings {
					t.Fatalf("rank %d step %d: plan step is %+v", r, si, ts)
				}
				nsend, nrecv := 0, 0
				for tile := range tiles {
					tts := tiles[tile][si]
					if got := perTile(ts.Sends, tile); !reflect.DeepEqual(got, tts.Sends) {
						t.Fatalf("rank %d step %d tile %d: sends %v, tile plan %v", r, si, tile, got, tts.Sends)
					}
					if got := perTile(ts.Recvs, tile); !reflect.DeepEqual(got, tts.Recvs) {
						t.Fatalf("rank %d step %d tile %d: recvs %v, tile plan %v", r, si, tile, got, tts.Recvs)
					}
					nsend += len(tts.Sends)
					nrecv += len(tts.Recvs)
				}
				if nsend != len(ts.Sends) || nrecv != len(ts.Recvs) {
					t.Fatalf("rank %d step %d: %d sends and %d recvs, tile plans hold %d and %d",
						r, si, len(ts.Sends), len(ts.Recvs), nsend, nrecv)
				}
			}
		}
	}
	for _, m := range methods {
		for p := 2; p <= 9; p++ {
			s, err := m.build(p)
			if err != nil {
				continue // outside the method's domain (binary-swap off a power of two)
			}
			t.Run(fmt.Sprintf("%s/p%d", m.name, p), func(t *testing.T) { check(t, s) })
			if p < 3 {
				continue
			}
			t.Run(fmt.Sprintf("%s/p%d/dead%d", m.name, p, p/2), func(t *testing.T) {
				rs, _, err := Repair(s, []int{p / 2})
				if err != nil {
					t.Fatal(err)
				}
				if rs.memo.rankPlans != nil {
					t.Fatal("a repaired schedule starts with the original's memo")
				}
				check(t, rs)
				if restored, _, _ := Repair(s, nil); &restored.RankPlan(0)[0] != &s.RankPlan(0)[0] {
					t.Fatal("Repair(s, nil) did not keep the original's memoised rank plan")
				}
			})
		}
	}
}
