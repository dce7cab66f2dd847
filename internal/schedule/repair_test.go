package schedule

import (
	"fmt"
	"testing"
)

// TestRepairValidatesAcrossMethodsAndDeaths is the planner's core contract:
// for every method, mesh size and single death, the repaired schedule passes
// symbolic validation with the dead layer staged at the nearest survivor in
// front of it (Repair validates internally; this exercises it).
func TestRepairValidatesAcrossMethodsAndDeaths(t *testing.T) {
	type mk struct {
		name  string
		build func(p int) (*Schedule, error)
	}
	methods := []mk{
		{"nrt", func(p int) (*Schedule, error) { return NRT(p, 4) }},
		{"2nrt", func(p int) (*Schedule, error) { return TwoNRT(p, 4) }},
		{"bs", BinarySwap},
		{"pp", Pipeline},
	}
	for _, m := range methods {
		for _, p := range []int{2, 4, 5, 7, 8} {
			s, err := m.build(p)
			if err != nil {
				// binary-swap needs a power of two; skip incompatible sizes.
				continue
			}
			for d := 0; d < p; d++ {
				t.Run(fmt.Sprintf("%s/p%d/dead%d", m.name, p, d), func(t *testing.T) {
					rs, owners, err := Repair(s, []int{d})
					if err != nil {
						t.Fatalf("Repair: %v", err)
					}
					want := d - 1
					if d == 0 {
						want = 1 // nobody is in front of layer 0: the first survivor takes it
					}
					if owners[d] != want {
						t.Fatalf("dead layer %d owned by %d, want %d", d, owners[d], want)
					}
					for _, tr := range allTransfers(rs) {
						if tr.From == d || tr.To == d {
							t.Fatalf("repaired plan still routes through dead rank %d: %v", d, tr)
						}
					}
				})
			}
		}
	}
}

// TestRepairTwoDisjointDeaths kills two ranks apart from each other — each
// dead layer goes to the survivor just in front of it.
func TestRepairTwoDisjointDeaths(t *testing.T) {
	s, err := NRT(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	rs, owners, err := Repair(s, []int{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	if owners[1] != 0 || owners[6] != 5 {
		t.Fatalf("owners = %v, want layer1->0 and layer6->5", owners)
	}
	for _, tr := range allTransfers(rs) {
		if tr.From == 1 || tr.To == 1 || tr.From == 6 || tr.To == 6 {
			t.Fatalf("repaired plan routes through a dead rank: %v", tr)
		}
	}
}

// TestRepairEveryDeadSet holds the planner to its contract on every dead
// set that leaves a survivor, for the paper's five methods at P = 1..9: the
// plan validates, takes at most ceil(log2 P) steps, routes no transfer
// through a dead rank, and stages every layer at a live rank. An empty dead
// set hands back the original schedule.
func TestRepairEveryDeadSet(t *testing.T) {
	methods := []struct {
		name  string
		build func(p int) (*Schedule, error)
	}{
		{"nrt", func(p int) (*Schedule, error) { return NRT(p, 4) }},
		{"2nrt", func(p int) (*Schedule, error) { return TwoNRT(p, 4) }},
		{"bs", BinarySwap},
		{"pp", Pipeline},
		{"ds", DirectSend},
	}
	sets := 0
	for _, m := range methods {
		for p := 1; p <= 9; p++ {
			s, err := m.build(p)
			if err != nil {
				continue // outside the method's domain (binary-swap off a power of two)
			}
			for mask := 0; mask < 1<<p-1; mask++ {
				var dead []int
				for r := 0; r < p; r++ {
					if mask&(1<<r) != 0 {
						dead = append(dead, r)
					}
				}
				rs, owners, err := Repair(s, dead)
				if err != nil {
					t.Fatalf("%s p=%d dead=%v: %v", m.name, p, dead, err)
				}
				if len(dead) == 0 {
					if rs != s || owners != nil {
						t.Fatalf("%s p=%d: no rank dead, got plan %p owners %v, want the original and nil", m.name, p, rs, owners)
					}
					continue
				}
				sets++
				if _, err := ValidateFrom(rs, 4*rs.Tiles, owners); err != nil {
					t.Fatalf("%s p=%d dead=%v: %v", m.name, p, dead, err)
				}
				if len(rs.Steps) > CeilLog2(p) {
					t.Fatalf("%s p=%d dead=%v: %d steps, want at most %d", m.name, p, dead, len(rs.Steps), CeilLog2(p))
				}
				for _, tr := range allTransfers(rs) {
					if mask&(1<<tr.From) != 0 || mask&(1<<tr.To) != 0 {
						t.Fatalf("%s p=%d dead=%v: transfer %v routes through a dead rank", m.name, p, dead, tr)
					}
				}
				for l, o := range owners {
					if o < 0 || o >= p || mask&(1<<o) != 0 {
						t.Fatalf("%s p=%d dead=%v: layer %d owned by %d, not a survivor", m.name, p, dead, l, o)
					}
				}
			}
		}
	}
	t.Logf("%d dead sets planned", sets)
}

// TestRepairNoDoubleSendPerStep: the executor's Take removes a block on
// send, so no rank may send the same tile twice within one step.
func TestRepairNoDoubleSendPerStep(t *testing.T) {
	for _, p := range []int{4, 5, 7, 8, 9, 16} {
		s, err := Pipeline(p)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < p; d++ {
			rs, _, err := Repair(s, []int{d})
			if err != nil {
				t.Fatalf("p=%d dead=%d: %v", p, d, err)
			}
			for si, step := range rs.Steps {
				sent := map[string]bool{}
				for _, tr := range step.Transfers {
					k := fmt.Sprintf("%d/%v", tr.From, tr.Block)
					if sent[k] {
						t.Fatalf("p=%d dead=%d step %d: rank %d sends %v twice", p, d, si+1, tr.From, tr.Block)
					}
					sent[k] = true
				}
			}
		}
	}
}

func allTransfers(s *Schedule) []Transfer {
	var out []Transfer
	for _, st := range s.Steps {
		out = append(out, st.Transfers...)
	}
	return out
}

// TestRestoreRevertsToOriginal: after the mesh heals (empty dead set) the
// plan must be the original schedule pointer with a nil owner map.
func TestRestoreRevertsToOriginal(t *testing.T) {
	s, err := NRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, owners, err := Repair(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan != s || owners != nil {
		t.Fatalf("Repair with no dead ranks did not revert: plan=%p owners=%v", plan, owners)
	}
}
