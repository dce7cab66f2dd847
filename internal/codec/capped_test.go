package codec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rtcomp/internal/raster"
)

// cappedShapes are pixel blocks on both sides of every codec's break-even
// point: what compresses, what expands, and mixtures that land near raw.
func cappedShapes(rng *rand.Rand, n int) map[string][]uint8 {
	noise := raster.RandomImage(rng, n, 1, 0.10).Pix
	sparse := raster.RandomBinaryImage(rng, n, 1, 0.08).Pix
	half := make([]uint8, 2*n)
	copy(half, noise[:n&^1])
	framed := make([]uint8, 2*n) // one blank pixel at each end of noise
	copy(framed, noise)
	if n >= 2 {
		framed[0], framed[1], framed[2*n-2], framed[2*n-1] = 0, 0, 0, 0
	}
	return map[string][]uint8{
		"noise": noise, "sparse": sparse, "blank": make([]uint8, 2*n), "half": half, "framed": framed,
	}
}

// TestEncodeCappedNeverExceedsRaw pins the escape's whole contract against
// the pure codec: the wire form is the pure stream exactly when that is
// strictly shorter than the pixels and the pixels otherwise, it leaves the
// bytes before it alone, it never writes past len(pix) bytes of a buffer
// reserved at that size, and Resolve decodes it back.
func TestEncodeCappedNeverExceedsRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	prefix := []uint8{0xA5, 0x5A, 0xC3}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 12, 13, 64, 255, 256, 257, 1000} {
		for shape, pix := range cappedShapes(rng, n) {
			for _, cdc := range allCodecs {
				pure := cdc.EncodeAppend(nil, pix)
				want := pix
				if len(pure) < len(pix) {
					want = pure
				}
				// Exactly the documented reservation, then a guard the
				// encoder must never reach.
				buf := make([]uint8, len(prefix)+len(pix)+8)
				for i := range buf {
					buf[i] = 0x77
				}
				copy(buf, prefix)
				out := EncodeCapped(buf[:len(prefix):len(prefix)+len(pix)], pix, cdc)
				if !bytes.Equal(out[:len(prefix)], prefix) {
					t.Fatalf("%s/%s/n%d: prefix clobbered", cdc.Name(), shape, n)
				}
				got := out[len(prefix):]
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/%s/n%d: wire form has %d bytes, want %d (pure %d, raw %d)",
						cdc.Name(), shape, n, len(got), len(want), len(pure), len(pix))
				}
				if len(out) > 0 && &out[0] != &buf[0] {
					t.Fatalf("%s/%s/n%d: reallocated a buffer reserved at len(pix)", cdc.Name(), shape, n)
				}
				for i, b := range buf[len(prefix)+len(pix):] {
					if b != 0x77 {
						t.Fatalf("%s/%s/n%d: wrote %d bytes past the reservation", cdc.Name(), shape, n, i+1)
					}
				}
				dec, err := Resolve(cdc, got, n).DecodeInto(nil, got, n)
				if err != nil {
					t.Fatalf("%s/%s/n%d: %v", cdc.Name(), shape, n, err)
				}
				if !bytes.Equal(dec, pix) {
					t.Fatalf("%s/%s/n%d: wire form does not decode back", cdc.Name(), shape, n)
				}
			}
		}
	}
}

// TestTRLEBudgetEveryLimit drives the TRLE kernel at every budget around
// its exact output size L: it must report a fit exactly when L fits the
// budget, return the pure stream behind dst's prefix when it does, and
// write nothing at all — not even inside the budget — when it does not.
func TestTRLEBudgetEveryLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	blocks := encoderEdgeClasses()
	ns := []int{255, 256, 257, 1023, 1024, 1025}
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		for shape, pix := range cappedShapes(rng, n) {
			blocks[fmt.Sprintf("%s/n%d", shape, n)] = pix
		}
	}
	prefix := []uint8{0xA5, 0x5A, 0xC3}
	for name, pix := range blocks {
		pure := TRLE{}.EncodeAppend(nil, pix)
		L := len(pure)
		for budget := L - 2; budget <= L+2; budget++ {
			limit := len(prefix) + budget
			buf := bytes.Repeat([]uint8{0x77}, len(prefix)+L+8)
			copy(buf, prefix)
			out, fits := TRLE{}.encodeCapped(buf[:len(prefix)], pix, limit)
			if fits != (L <= budget) {
				t.Fatalf("%s: budget %d for a %d-byte stream reports fits=%v", name, budget, L, fits)
			}
			if !bytes.Equal(buf[:len(prefix)], prefix) {
				t.Fatalf("%s: budget %d: prefix clobbered", name, budget)
			}
			if !fits {
				for i, b := range buf[len(prefix):] {
					if b != 0x77 {
						t.Fatalf("%s: budget %d: a block that does not fit wrote byte %d", name, budget, i)
					}
				}
				continue
			}
			if !bytes.Equal(out[len(prefix):], pure) {
				t.Fatalf("%s: budget %d: stream differs from the pure encoding", name, budget)
			}
			if &out[0] != &buf[0] {
				t.Fatalf("%s: budget %d: reallocated a buffer with room past the limit", name, budget)
			}
			for i, b := range buf[limit:] {
				if b != 0x77 {
					t.Fatalf("%s: budget %d: wrote %d bytes past the limit", name, budget, i+1)
				}
			}
		}
	}
}

// tailGuarded returns a buffer of size bytes. On Linux its last byte is
// the last readable one before a page that faults (guard_linux_test.go);
// elsewhere it is plain memory.
var tailGuarded = func(t *testing.T, size int) []uint8 { return make([]uint8, size) }

// TestRLEBudgetEveryLimit is TestTRLEBudgetEveryLimit for RLE, under both
// dispatches: every budget around the exact size L must report a fit
// exactly when L fits, return the pure stream behind dst's prefix when it
// does, and write nothing when it does not. The shapes put every length
// mod 16 at the end of a block, with the 10 % blank noise of the frame
// ledger among them, runs of 254 to 512 pixels starting at every offset
// into a sixteen-pixel chunk, so runs meet the 255 cap wherever the
// run-start count stops, and blocks that are one run. Each block is read
// where it ends at a faulting page, so a count that reads past the block
// crashes the test.
func TestRLEBudgetEveryLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	blocks := map[string][]uint8{}
	ns := []int{255, 256, 257, 1023, 1024, 1025}
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	for k := 0; k <= 17; k++ {
		ns = append(ns, 4096+k)
	}
	for _, n := range ns {
		for shape, pix := range cappedShapes(rng, n) {
			blocks[fmt.Sprintf("%s/n%d", shape, n)] = pix
		}
	}
	for _, run := range []int{254, 255, 256, 510, 511, 512} {
		for off := 0; off <= 16; off++ {
			pix := raster.RandomImage(rng, 32+off+run+40, 1, 0.10).Pix
			fillPixelRun(pix[2*(32+off):2*(32+off+run)], 0, 0)
			blocks[fmt.Sprintf("blank-run%d/off%d", run, off)] = pix
			pix = append([]uint8(nil), pix...)
			fillPixelRun(pix[2*(32+off):2*(32+off+run)], 42, 255)
			blocks[fmt.Sprintf("run%d/off%d", run, off)] = pix
		}
	}
	for _, n := range []int{1, 17, 255, 4113} {
		pix := make([]uint8, 2*n)
		fillPixelRun(pix, 42, 255)
		blocks[fmt.Sprintf("one-run/n%d", n)] = pix
	}
	maxLen := 0
	for _, pix := range blocks {
		maxLen = max(maxLen, len(pix))
	}
	guarded := tailGuarded(t, maxLen)
	prefix := []uint8{0xA5, 0x5A, 0xC3}
	forEachDispatch(t, func(t *testing.T) {
		for name, block := range blocks {
			pix := guarded[len(guarded)-len(block):]
			copy(pix, block)
			pure := RLE{}.EncodeAppend(nil, pix)
			L := len(pure)
			for budget := L - 4; budget <= L+4; budget++ {
				limit := len(prefix) + budget
				buf := bytes.Repeat([]uint8{0x77}, len(prefix)+L+8)
				copy(buf, prefix)
				out, fits := RLE{}.encodeCapped(buf[:len(prefix)], pix, limit)
				if fits != (L <= budget) {
					t.Fatalf("%s: budget %d for a %d-byte stream reports fits=%v", name, budget, L, fits)
				}
				if !bytes.Equal(buf[:len(prefix)], prefix) {
					t.Fatalf("%s: budget %d: prefix clobbered", name, budget)
				}
				if !fits {
					for i, b := range buf[len(prefix):] {
						if b != 0x77 {
							t.Fatalf("%s: budget %d: a block that does not fit wrote byte %d", name, budget, i)
						}
					}
					continue
				}
				if !bytes.Equal(out[len(prefix):], pure) {
					t.Fatalf("%s: budget %d: stream differs from the pure encoding", name, budget)
				}
			}
		}
	})
}

// TestPureEncodeUnchangedByBudget proves the byte budget is invisible to
// the pure entry points: the kernels run under an unlimited budget there and
// must keep emitting streams longer than the pixels when the data demands
// it — the paper's compression-ratio tables measure exactly that.
func TestPureEncodeUnchangedByBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	noise := raster.RandomImage(rng, 256, 1, 0).Pix
	if got, want := len(RLE{}.EncodeAppend(nil, noise)), 3*256; got != want {
		t.Fatalf("pure RLE on noise emits %d bytes, want the full %d", got, want)
	}
	if got := len(TRLE{}.EncodeAppend(nil, noise)); got <= len(noise) {
		t.Fatalf("pure TRLE on noise emits %d bytes, want more than the %d raw", got, len(noise))
	}
}
