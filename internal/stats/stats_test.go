package stats

import (
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := &Table{Title: "T", Headers: []string{"a", "bee"}}
	tb.Add("longer", "x")
	tb.Note("note %d", 7)
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if lines[0] != "T" {
		t.Fatalf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "a      ") {
		t.Fatalf("header not padded to widest cell: %q", lines[1])
	}
	if !strings.Contains(lines[2], "------") {
		t.Fatalf("separator missing: %q", lines[2])
	}
	if lines[4] != "# note 7" {
		t.Fatalf("note line %q", lines[4])
	}
}

func TestTableWriteTo(t *testing.T) {
	tb := &Table{Headers: []string{"h"}}
	tb.Add("v")
	var sb strings.Builder
	if _, err := tb.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != tb.String() {
		t.Fatal("WriteTo differs from String")
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := &Table{Headers: []string{"a", "b"}}
	tb.Add(`comma,here`, `quote"here`)
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"comma,here\",\"quote\"\"here\"\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestSeconds(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		5e-6:    "5.0us",
		1.25e-3: "1.25ms",
		2.5:     "2.500s",
	}
	for in, want := range cases {
		if got := Seconds(in); got != want {
			t.Fatalf("Seconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestIBytes(t *testing.T) {
	cases := map[int64]string{
		12:        "12B",
		2048:      "2.0KiB",
		3 << 20:   "3.00MiB",
		1<<20 - 1: "1024.0KiB",
	}
	for in, want := range cases {
		if got := IBytes(in); got != want {
			t.Fatalf("IBytes(%d) = %q, want %q", in, got, want)
		}
	}
}
