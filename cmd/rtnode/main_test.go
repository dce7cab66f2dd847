package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rtcomp/internal/transport/tcpnet"
)

// TestMultiProcess builds the rtnode binary and runs a real P-process
// distributed render over TCP sockets — the full deployment path, one OS
// process per rank.
func TestMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test skipped in -short mode")
	}
	dir, bin := buildNode(t)

	const p = 3
	outFile := filepath.Join(dir, "final.pgm")
	outputs := runMesh(t, bin, p, "-dataset", "engine", "-voln", "48", "-size", "96",
		"-method", "2nrt:4", "-codec", "trle", "-accel", "-o", outFile)
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatalf("rank 0 produced no image: %v", err)
	}
	if !bytes.HasPrefix(data, []byte("P5\n96 96\n255\n")) {
		t.Fatalf("output is not the expected 96x96 PGM: %q", data[:20])
	}
	if len(data) != len("P5\n96 96\n255\n")+96*96 {
		t.Fatalf("PGM payload truncated: %d bytes", len(data))
	}
	if !strings.Contains(outputs[0], "rank 0 wrote") {
		t.Fatalf("rank 0 output missing confirmation:\n%s", outputs[0])
	}
	// Non-root ranks report their traffic.
	if !strings.Contains(outputs[1], "msgs sent") {
		t.Fatalf("rank 1 output missing traffic report:\n%s", outputs[1])
	}
	// Healthy Recover frames stay healthy: a process leaves only once every
	// rank has finished the frame, so no peer reads its bye as a death.
	for run := 0; run < 10; run++ {
		outputs := runMesh(t, bin, 4, "-voln", "32", "-size", "128", "-method", "nrt:4",
			"-codec", "trle", "-on-missing", "recover", "-recv-timeout", "2s",
			"-o", filepath.Join(dir, "recover.pgm"))
		for r, out := range outputs {
			if strings.Contains(out, "RECOVERED") || strings.Contains(out, "DEGRADED") {
				t.Fatalf("run %d: rank %d of a healthy recover frame did not compose cleanly:\n%s", run, r, out)
			}
		}
	}
	// A standby has no slot to fill in a mesh -local builds whole: the
	// combination is refused, not rendered as a normal frame.
	out, err := exec.Command(bin, "-local", "2", "-spare", "-on-missing", "recover",
		"-rejoin-timeout", "1s", "-o", filepath.Join(dir, "spare.pgm")).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-spare") {
		t.Fatalf("-local with -spare: err=%v, output:\n%s", err, out)
	}
}

// TestGraceNeedsRecover: -grace only means something under -on-missing
// recover, so any other policy with it is refused before the mesh starts.
func TestGraceNeedsRecover(t *testing.T) {
	dir, bin := buildNode(t)
	for _, policy := range []string{"fail", "partial"} {
		out, err := exec.Command(bin, "-local", "2", "-grace", "-on-missing", policy,
			"-o", filepath.Join(dir, "grace.pgm")).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "-grace requires -on-missing recover") {
			t.Fatalf("-grace with -on-missing %s: err=%v, output:\n%s", policy, err, out)
		}
	}
}

// buildNode builds the rtnode binary into a fresh temporary directory and
// returns the directory and the binary's path.
func buildNode(t *testing.T) (dir, bin string) {
	t.Helper()
	dir = t.TempDir()
	bin = filepath.Join(dir, "rtnode")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building rtnode: %v\n%s", err, out)
	}
	return dir, bin
}

// runMesh runs one p-process rtnode mesh on loopback with the given flags
// and returns each rank's combined output, failing the test if any rank
// exits non-zero.
func runMesh(t *testing.T, bin string, p int, args ...string) []string {
	t.Helper()
	addrs, err := tcpnet.LoopbackAddrs(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	outputs := make([]bytes.Buffer, p)
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cmd := exec.Command(bin, append([]string{"-rank", strconv.Itoa(r), "-addrs", strings.Join(addrs, ",")}, args...)...)
			cmd.Stdout = &outputs[r]
			cmd.Stderr = &outputs[r]
			errs[r] = cmd.Run()
		}(r)
	}
	wg.Wait()
	out := make([]string, p)
	for r := range outputs {
		out[r] = outputs[r].String()
		if errs[r] != nil {
			t.Fatalf("rank %d failed: %v\n%s", r, errs[r], out[r])
		}
	}
	return out
}
