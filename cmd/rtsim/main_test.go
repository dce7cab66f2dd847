package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// An automatic block count is planned for the machine being simulated, not
// for the host the simulator runs on: each -machine gets what model.AutoN
// picks under its own constants (Equations 5–6 with the paper's Section 2.3
// example favour many small blocks, the SP2's millisecond startup few).
func TestAutoPlansForTheSimulatedMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "rtsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building rtsim: %v\n%s", err, out)
	}
	for machine, want := range map[string]string{
		"paper": "method=nrt:32 codec=raw machine=paper-example ",
		"sp2":   "method=nrt:4 codec=raw machine=sp2-calibrated ",
	} {
		out, err := exec.Command(bin, "-machine", machine, "-method", "nrt:auto",
			"-p", "8", "-size", "128", "-voln", "32").CombinedOutput()
		if err != nil {
			t.Fatalf("-machine %s: %v\n%s", machine, err, out)
		}
		if !strings.HasPrefix(string(out), want) {
			t.Fatalf("-machine %s: output starts %q, want %q", machine, firstLine(out), want)
		}
	}
}

func firstLine(b []byte) string {
	line, _, _ := strings.Cut(string(b), "\n")
	return line
}
