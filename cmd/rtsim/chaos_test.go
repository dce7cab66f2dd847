package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// One harness runs every -chaos mode: message faults, a killed rank under
// recover, a spare that rejoins, and severed TCP connections. Each case is
// judged by the line CI greps for; a mode the harness cannot run is refused
// before any mesh starts.
func TestChaosHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "rtsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building rtsim: %v\n%s", err, out)
	}
	cases := []struct {
		name  string
		args  string
		fails bool     // the run must exit non-zero
		want  []string // lines the output must contain
	}{
		{"drop-resend", "-p 4 -method nrt:2 -drop 0.2 -resend 6 -recv-timeout 5s", false,
			[]string{"chaos: SURVIVED", "injected "}},
		{"kill-recover", "-p 4 -method nrt:2 -kill -recv-timeout 1s -on-missing recover", false,
			[]string{"chaos: RECOVERED", "(victim) died as planned"}},
		// A run with a victim that ends degraded has not recovered: an error.
		{"kill-degrade", "-p 4 -method nrt:2 -kill -recv-timeout 1s -on-missing recover -max-recoveries -1", true,
			[]string{"chaos: DEGRADED"}},
		{"kill-spare", "-p 4 -method nrt:2 -kill -spare -recv-timeout 1s -on-missing recover", false,
			[]string{"chaos: REJOINED", "# rejoin: spare=true", "evictions=0"}},
		{"conn-reset", "-p 4 -method nrt:4 -conn-reset 2 -recv-timeout 10s", false,
			[]string{"chaos: SURVIVED", "resumed invisibly", "# session: reconnects="}},
		{"conn-reset-p1", "-p 1 -method pp -conn-reset 1", true,
			[]string{"-conn-reset needs -p >= 2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-size", "64", "-voln", "16", "-chaos"}, strings.Fields(tc.args)...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			if (err != nil) != tc.fails || strings.Contains(string(out), "panic") {
				t.Fatalf("rtsim %s: err=%v, want a non-zero exit %v and no panic:\n%s", tc.args, err, tc.fails, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(string(out), w) {
					t.Fatalf("rtsim %s: output lacks %q:\n%s", tc.args, w, out)
				}
			}
		})
	}
}
