package compose

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestBlendWordsMatchesOverPixel checks blendWords (where the host has
// AVX2) and its portable definition blendWordsGo against OverPixel on every
// (fv, fa, ba) for ten back values — six at the edges of the byte and four
// seeded — which is about 167 M pixels (two back values under the race
// detector), and then drives OverU8 with eight-pixel vectors of every class
// the kernel tells apart, with a trailing four-pixel word, with tails, and
// with every aliasing, under both values of the dispatch.
func TestBlendWordsMatchesOverPixel(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	t.Run("domain", func(t *testing.T) {
		bvs := []int{0, 1, 127, 128, 254, 255}
		for len(bvs) < 10 {
			bvs = append(bvs, rng.Intn(256))
		}
		if raceEnabled {
			bvs = []int{0, 128}
		}
		type kernel struct {
			name string
			fn   func(dst, front, back []uint8)
		}
		kernels := []kernel{{"blendWordsGo", blendWordsGo}}
		if useAVX2 {
			kernels = append(kernels, kernel{"blendWords", blendWords})
		}
		// Pixel k = ba<<8 | fv: front (fv, fa), back (bv, ba).
		const px = 256 * 256
		front, back := make([]uint8, 2*px), make([]uint8, 2*px)
		want, got := make([]uint8, 2*px), make([]uint8, 2*px)
		for k := 0; k < px; k++ {
			front[2*k] = uint8(k)
			back[2*k+1] = uint8(k >> 8)
		}
		for _, bv := range bvs {
			for k := 0; k < px; k++ {
				back[2*k] = uint8(bv)
			}
			for fa := 0; fa < 256; fa++ {
				for k := 0; k < px; k++ {
					front[2*k+1] = uint8(fa)
					want[2*k], want[2*k+1] = OverPixel(front[2*k], uint8(fa), uint8(bv), back[2*k+1])
				}
				for _, kern := range kernels {
					kern.fn(got, front, back)
					if !bytes.Equal(got, want) {
						k := firstDiff(got, want) / 2
						t.Fatalf("%s(fv=%d, fa=%d, bv=%d, ba=%d) = (%d,%d), OverPixel (%d,%d)",
							kern.name, front[2*k], fa, bv, back[2*k+1], got[2*k], got[2*k+1], want[2*k], want[2*k+1])
					}
				}
			}
		}
	})
	t.Run("OverU8", func(t *testing.T) {
		dispatch := []bool{false}
		if useAVX2 {
			dispatch = []bool{true, false}
		}
		defer func(v bool) { useAVX2 = v }(useAVX2)
		for _, avx2 := range dispatch {
			useAVX2 = avx2
			t.Run(fmt.Sprintf("avx2=%v", avx2), func(t *testing.T) {
				for trial := 0; trial < 1000; trial++ {
					vectors, oddWord, tail := rng.Intn(9), rng.Intn(2) == 1, rng.Intn(4)
					front := vectorClassPixels(rng, vectors, oddWord, tail)
					back := vectorClassPixels(rng, vectors, oddWord, tail)
					n := len(front)
					want := make([]uint8, n)
					for k := 0; k < n; k += 2 {
						want[k], want[k+1] = OverPixel(front[k], front[k+1], back[k], back[k+1])
					}
					for alias := 0; alias < 3; alias++ {
						f, b := append([]uint8(nil), front...), append([]uint8(nil), back...)
						dst := make([]uint8, n)
						switch alias {
						case 1:
							dst = f
						case 2:
							dst = b
						}
						OverU8(dst, f, b)
						if !bytes.Equal(dst, want) {
							k := firstDiff(dst, want)
							t.Fatalf("trial %d alias %d, %d pixels: byte %d = %d, want %d",
								trial, alias, n/2, k, dst[k], want[k])
						}
					}
				}
			})
		}
	})
}

// Pixel classes of the kernel's classification: a whole front vector of
// opaque or of blank pixels is stored without a blend, anything else is
// blended. Binary mixes only opaque and blank pixels, which no class short-
// circuits as a whole.
const (
	classOpaque = iota
	classBlank
	classMixed
	classBinary
	numClasses
)

// vectorClassPixels draws the given number of eight-pixel vectors, then a
// four-pixel word if oddWord (the kernel's odd-word tail), then tail pixels
// after the last whole word. A vector is eight pixels of one class or two
// four-pixel halves of different classes. Blank pixels keep a random value
// byte half the time (non-canonical blanks the kernel must pass through).
func vectorClassPixels(rng *rand.Rand, vectors int, oddWord bool, tail int) []uint8 {
	pix := make([]uint8, 0, 16*vectors+8+2*tail)
	word := func(class int) {
		for j := 0; j < 4; j++ {
			v, a := uint8(rng.Intn(256)), uint8(rng.Intn(256))
			switch class {
			case classOpaque:
				a = 255
			case classBlank:
				a = 0
			case classBinary:
				a = uint8(255 * rng.Intn(2))
			}
			if a == 0 && rng.Intn(2) == 0 {
				v = 0
			}
			pix = append(pix, v, a)
		}
	}
	for i := 0; i < vectors; i++ {
		lo := rng.Intn(numClasses)
		hi := lo
		if rng.Intn(2) == 0 {
			hi = (lo + 1 + rng.Intn(numClasses-1)) % numClasses
		}
		word(lo)
		word(hi)
	}
	if oddWord {
		word(rng.Intn(numClasses))
	}
	for j := 0; j < tail; j++ {
		pix = append(pix, uint8(rng.Intn(256)), uint8(rng.Intn(256)))
	}
	return pix
}

// TestAVX2Detection checks the dispatch against the kernel's own report of
// the CPU: on linux/amd64, useAVX2 must be set exactly when /proc/cpuinfo
// lists avx2 (which the kernel lists only with the YMM state enabled), so a
// wrong CPUID or XGETBV check fails here instead of silently running the
// scalar path.
func TestAVX2Detection(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("no /proc/cpuinfo flags to compare on %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading /proc/cpuinfo: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed = slices.Contains(strings.Fields(flags), "avx2")
			break
		}
	}
	if useAVX2 != listed {
		t.Fatalf("useAVX2 = %v, /proc/cpuinfo lists avx2: %v", useAVX2, listed)
	}
}

func firstDiff(a, b []uint8) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
