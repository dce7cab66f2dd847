package schedule

import (
	"fmt"
	"testing"
)

func TestBuddyInvolutionEvenMesh(t *testing.T) {
	for p := 2; p <= 16; p += 2 {
		for r := 0; r < p; r++ {
			b := Buddy(r, p)
			if b == r || b < 0 || b >= p {
				t.Fatalf("p=%d: Buddy(%d)=%d out of range or self", p, r, b)
			}
			if Buddy(b, p) != r {
				t.Fatalf("p=%d: Buddy not an involution: %d -> %d -> %d", p, r, b, Buddy(b, p))
			}
		}
	}
}

func TestBuddyOddMeshFallback(t *testing.T) {
	for p := 3; p <= 15; p += 2 {
		for r := 0; r < p; r++ {
			b := Buddy(r, p)
			if b == r || b < 0 || b >= p {
				t.Fatalf("p=%d: Buddy(%d)=%d out of range or self", p, r, b)
			}
		}
		// Only the last rank lacks an XOR partner.
		if got, want := Buddy(p-1, p), (p-1+p/2)%p; got != want {
			t.Fatalf("p=%d: Buddy(%d)=%d, want fallback %d", p, p-1, got, want)
		}
	}
}

func TestRepairOwners(t *testing.T) {
	owners, ok := RepairOwners(4, []int{3})
	if !ok {
		t.Fatal("single death with live buddy must be recoverable")
	}
	if want := []int{0, 1, 2, 2}; !equalInts(owners, want) {
		t.Fatalf("owners = %v, want %v", owners, want)
	}
	// A dead buddy pair loses both copies of both layers.
	owners, ok = RepairOwners(4, []int{2, 3})
	if ok {
		t.Fatal("buddy-pair death must be unrecoverable")
	}
	if want := []int{0, 1, -1, -1}; !equalInts(owners, want) {
		t.Fatalf("owners = %v, want %v", owners, want)
	}
}

// TestRepairValidatesAcrossMethodsAndDeaths is the planner's core contract:
// for every method, mesh size and single/double death pattern where the
// buddies survive, the repaired schedule passes symbolic validation with
// the buddy-staged owners (Repair validates internally; this exercises it).
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
					if owners[d] != Buddy(d, p) {
						t.Fatalf("dead layer %d owned by %d, want buddy %d", d, owners[d], Buddy(d, p))
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

// TestRepairTwoDisjointDeaths kills two ranks from different buddy pairs —
// both layers stay recoverable from their surviving buddies.
func TestRepairTwoDisjointDeaths(t *testing.T) {
	s, err := NRT(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	rs, owners, err := Repair(s, []int{1, 6})
	if err != nil {
		t.Fatal(err)
	}
	if owners[1] != 0 || owners[6] != 7 {
		t.Fatalf("owners = %v, want layer1->0 and layer6->7", owners)
	}
	for _, tr := range allTransfers(rs) {
		if tr.From == 1 || tr.To == 1 || tr.From == 6 || tr.To == 6 {
			t.Fatalf("repaired plan routes through a dead rank: %v", tr)
		}
	}
}

// TestRepairUnrecoverablePairStillPlans asserts the fallback shape: when a
// buddy pair dies, Repair still returns a valid partial plan with those
// layers absent, for the compose-partial fallback epoch.
func TestRepairUnrecoverablePairStillPlans(t *testing.T) {
	s, err := TwoNRT(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	rs, owners, err := Repair(s, []int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if owners[4] != -1 || owners[5] != -1 {
		t.Fatalf("owners = %v, want layers 4 and 5 absent", owners)
	}
	for _, tr := range allTransfers(rs) {
		if tr.From == 4 || tr.To == 4 || tr.From == 5 || tr.To == 5 {
			t.Fatalf("partial plan routes through a dead rank: %v", tr)
		}
	}
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

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRestoreRevertsToOriginal: after the mesh heals (empty dead set) the
// restored plan must be the original schedule pointer with a nil owner map,
// and with deaths remaining it must match Repair exactly.
func TestRestoreRevertsToOriginal(t *testing.T) {
	s, err := NRT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, owners, err := Restore(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan != s || owners != nil {
		t.Fatalf("Restore with no dead ranks did not revert: plan=%p owners=%v", plan, owners)
	}
	restored, rOwners, err := Restore(s, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	repaired, pOwners, err := Repair(s, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(rOwners, pOwners) || len(allTransfers(restored)) != len(allTransfers(repaired)) {
		t.Fatalf("Restore with dead ranks diverged from Repair: %v vs %v", rOwners, pOwners)
	}
}
