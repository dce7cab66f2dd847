package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig1", "fig2", "fig3", "fig4", "eq56", "fig5", "fig6", "fig7", "fig8", "compress", "ablate", "predict", "timeline", "radix", "gantt", "sweep", "scaling", "contention"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d specs, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("registry[%d] = %q, want %q", i, reg[i].ID, id)
		}
		if reg[i].Paper == "" || reg[i].Title == "" {
			t.Fatalf("%s: missing metadata", id)
		}
	}
	if _, ok := ByID("fig5"); !ok {
		t.Fatal("ByID(fig5) missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID(nope) found something")
	}
}

// Every experiment must run end to end in quick mode and produce non-empty
// tables.
func TestAllExperimentsRunQuick(t *testing.T) {
	o := QuickOptions()
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			tables, err := spec.Run(o)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", spec.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: empty table %q", spec.ID, tb.Title)
				}
				if s := tb.String(); len(s) == 0 {
					t.Fatalf("%s: empty rendering", spec.ID)
				}
			}
		})
	}
}

func TestFig4ReproducesPaperBytes(t *testing.T) {
	tables, err := runFig4(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := tables[0].String()
	if !strings.Contains(s, "5 26 15 8 10") {
		t.Fatalf("TRLE codes missing from output:\n%s", s)
	}
	if !strings.Contains(s, "18:5") {
		t.Fatalf("18:5 ratio missing:\n%s", s)
	}
}

func TestEq56ReproducesPaperExample(t *testing.T) {
	o := DefaultOptions() // needs the 512x512 A of the worked example
	tables, err := runEq56(o)
	if err != nil {
		t.Fatal(err)
	}
	// Find the P=32 row: Eq 5 bound ~4.3 -> N=4.
	found := false
	for _, row := range tables[0].Rows {
		if row[0] == "32" {
			found = true
			if row[2] != "4" {
				t.Fatalf("P=32 2N_RT N = %s, want 4", row[2])
			}
			if !strings.HasPrefix(row[1], "4.") {
				t.Fatalf("P=32 Eq5 bound = %s, want 4.x", row[1])
			}
		}
	}
	if !found {
		t.Fatal("P=32 row missing")
	}
}

func TestPartialsCachedAndDepthOrdered(t *testing.T) {
	o := QuickOptions()
	a, err := Partials(o, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partials(o, 4)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0].Pix[0] != &b[0].Pix[0] {
		t.Fatal("partials not cached")
	}
	if len(a) != 4 {
		t.Fatalf("got %d layers", len(a))
	}
	for i, im := range a {
		if im.W != o.Width || im.H != o.Height {
			t.Fatalf("layer %d is %dx%d", i, im.W, im.H)
		}
		if im.BlankFraction() == 1 {
			t.Fatalf("layer %d is empty", i)
		}
	}
}

func TestPartialsUnknownDataset(t *testing.T) {
	o := QuickOptions()
	o.Dataset = "zap"
	if _, err := Partials(o, 2); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// A resolution of zero or less is an error, not a panic in the volume
// allocator: trle and rtsim build their partials here.
func TestPartialsRejectsNonPositiveResolution(t *testing.T) {
	for _, n := range []int{0, -1} {
		o := QuickOptions()
		o.VolumeN = n
		if _, err := Partials(o, 2); err == nil {
			t.Fatalf("resolution %d accepted", n)
		}
	}
}

// The quick fig8 run must preserve the paper's headline orderings.
func TestFig8Orderings(t *testing.T) {
	o := QuickOptions()
	tables, err := runFig8(o)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	for _, row := range tb.Rows {
		raw := parseSeconds(t, row[1])
		trle := parseSeconds(t, row[3])
		if trle >= raw {
			t.Fatalf("%s: trle %v not faster than raw %v", row[0], trle, raw)
		}
	}
}

// parseSeconds inverts stats.Seconds ("12.34ms", "1.5us", "2.000s").
func parseSeconds(t *testing.T, s string) float64 {
	t.Helper()
	i := 0
	for i < len(s) && (s[i] == '.' || s[i] == '-' || (s[i] >= '0' && s[i] <= '9')) {
		i++
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	switch s[i:] {
	case "us":
		return v * 1e-6
	case "ms":
		return v * 1e-3
	default:
		return v
	}
}
