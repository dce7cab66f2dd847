package codec

// Differential matrix: the word-wide kernels against the preserved scalar
// references (reference_test.go), across codecs x operations x image
// classes, plus the fused decode+over path against its decode-then-compose
// oracle, and the truncated-tail (underflow) rejection cases.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rtcomp/internal/compose"
	"rtcomp/internal/raster"
)

// imageClasses builds the pixel-block classes the differential matrix runs
// over. Each class returns interleaved value+alpha bytes.
func imageClasses(rng *rand.Rand) map[string][]uint8 {
	classes := map[string][]uint8{}

	classes["empty"] = []uint8{}
	classes["blank"] = make([]uint8, 2*512) // all-blank: one giant template run

	// Dense with varying values: every RLE run has length 1.
	dense := make([]uint8, 2*511) // odd pixel count: partial tail group
	for i := 0; i < len(dense); i += 2 {
		dense[i], dense[i+1] = uint8(i*7), uint8(1+(i/2)%255)
	}
	classes["dense-odd"] = dense

	// Constant opaque: runs longer than RLE's 255 cap and template runs
	// longer than TRLE's 16-group cap.
	classes["constant"] = bytes.Repeat([]uint8{42, 255}, 1000)

	// Checkerboard: alternating blank/non-blank, the worst case for
	// template classification (every group is template 0b1010).
	checker := make([]uint8, 2*400)
	for i := 0; i < 400; i += 2 {
		checker[2*i], checker[2*i+1] = uint8(i), 200
	}
	classes["checkerboard"] = checker

	// Banded like the rtbench layers: blank bands between dense stretches.
	banded := make([]uint8, 2*600)
	for px := 0; px < 600; px++ {
		if (px/32)%3 == 0 {
			continue
		}
		banded[2*px], banded[2*px+1] = uint8(px%256), uint8(128+px%128)
	}
	classes["banded"] = banded

	// Non-canonical blanks: zero alpha with non-zero value bytes. RLE must
	// round-trip them verbatim; TRLE treats them as blank.
	noncanon := make([]uint8, 2*100)
	for i := 0; i < len(noncanon); i += 2 {
		noncanon[i] = uint8(13 + i)
	}
	classes["noncanonical-blank"] = noncanon

	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
		img := make([]uint8, 2*n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				img[2*i], img[2*i+1] = uint8(rng.Intn(256)), uint8(1+rng.Intn(255))
			}
		}
		classes["tiny-"+string(rune('0'+n))] = img
	}

	for _, density := range []int{1, 5, 9} {
		img := raster.RandomImage(rng, 37, 11, float64(density)/10)
		classes["random-"+string(rune('0'+density))] = img.Pix
	}
	for name, pix := range encoderEdgeClasses() {
		classes[name] = pix
	}
	return classes
}

// encoderEdgeClasses reach every branch of the TRLE encoder's template
// classifier and code compaction: blank template runs on both sides of each
// 16-group code boundary, a single non-blank pixel at each position of an
// otherwise blank 16-pixel quad, and trailing partial groups.
func encoderEdgeClasses() map[string][]uint8 {
	classes := map[string][]uint8{}
	// An opaque group, r blank groups, an opaque group.
	for _, r := range []int{15, 16, 17, 32, 33, 4096} {
		pix := make([]uint8, 2*templatePixels*(r+2))
		fillOpaque(pix[:2*templatePixels])
		fillOpaque(pix[len(pix)-2*templatePixels:])
		classes[fmt.Sprintf("blank-run-%d", r)] = pix
	}
	// A blank quad, then a quad whose only non-blank pixel is pixel k.
	for k := 0; k < 16; k++ {
		pix := make([]uint8, 2*32)
		pix[2*(16+k)], pix[2*(16+k)+1] = uint8(10+k), uint8(100+k)
		classes[fmt.Sprintf("quad-dot-%d", k)] = pix
	}
	// Nine full groups, then a partial group of j non-blank pixels.
	for j := 1; j <= 3; j++ {
		pix := make([]uint8, 2*(9*templatePixels+j))
		fillOpaque(pix)
		classes[fmt.Sprintf("tail-%d", j)] = pix
	}
	return classes
}

// fillOpaque sets every pixel of pix to an opaque pixel of varying value.
func fillOpaque(pix []uint8) {
	for i := 0; i < len(pix); i += 2 {
		pix[i], pix[i+1] = uint8(i), 255
	}
}

// refEncode/refDecode dispatch to the preserved scalar implementations.
func refEncode(name string, pix []uint8) []uint8 {
	if name == "rle" {
		return refRLEEncodeAppend(nil, pix)
	}
	return refTRLEEncodeAppend(nil, pix)
}

func refDecode(name string, enc []uint8, npix int) ([]uint8, error) {
	if name == "rle" {
		return refRLEDecodeInto(nil, enc, npix)
	}
	return refTRLEDecodeInto(nil, enc, npix)
}

// TestWordWideEncodersMatchReference: encode bytes old == new for every
// codec and image class, through EncodeAppend onto an empty and a
// non-empty dst.
func TestWordWideEncodersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for name, cdc := range map[string]Codec{"rle": RLE{}, "trle": TRLE{}} {
		for class, pix := range imageClasses(rng) {
			want := refEncode(name, pix)
			if got := cdc.EncodeAppend(nil, pix); !bytes.Equal(got, want) {
				t.Errorf("%s/%s: EncodeAppend differs from scalar reference\n got %v\nwant %v", name, class, got, want)
			}
			prefix := []uint8{9, 9, 9}
			if got := cdc.EncodeAppend(append([]uint8(nil), prefix...), pix); !bytes.Equal(got[len(prefix):], want) {
				t.Errorf("%s/%s: EncodeAppend differs from scalar reference", name, class)
			}
		}
	}
}

// TestWordWideDecodersMatchReference: decode pixels old == new on every
// valid stream, and both decoders must agree on acceptance of mangled ones.
func TestWordWideDecodersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for name, cdc := range map[string]Codec{"rle": RLE{}, "trle": TRLE{}} {
		for class, pix := range imageClasses(rng) {
			npix := len(pix) / raster.BytesPerPixel
			enc := refEncode(name, pix)
			want, werr := refDecode(name, enc, npix)
			got, gerr := cdc.DecodeInto(nil, enc, npix)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s/%s: decoder disagreement: ref err=%v, new err=%v", name, class, werr, gerr)
			}
			if werr == nil && !bytes.Equal(got, want) {
				t.Errorf("%s/%s: DecodeInto differs from scalar reference", name, class)
			}
			// Mangle the stream a few ways; acceptance must match the
			// reference decoder exactly, and accepted streams must agree.
			for trial := 0; trial < 20 && len(enc) > 0; trial++ {
				mut := append([]uint8(nil), enc...)
				switch trial % 3 {
				case 0:
					mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
				case 1:
					mut = mut[:rng.Intn(len(mut))]
				case 2:
					mut = append(mut, uint8(rng.Intn(256)))
				}
				want, werr := refDecode(name, mut, npix)
				got, gerr := cdc.DecodeInto(nil, mut, npix)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s/%s: mangled-stream disagreement: ref err=%v, new err=%v", name, class, werr, gerr)
				}
				if werr == nil && !bytes.Equal(got, want) {
					t.Errorf("%s/%s: mangled-stream decode differs", name, class)
				}
			}
		}
	}
}

// TestDecodeRejectsTruncatedTails pins the underflow contract: a stream cut
// short — decoding to fewer than npix pixels — must fail with ErrCorrupt
// from DecodeInto and CheckStream alike, never return a short
// block.
func TestDecodeRejectsTruncatedTails(t *testing.T) {
	pix := bytes.Repeat([]uint8{7, 255, 0, 0, 13, 128}, 100)
	npix := len(pix) / raster.BytesPerPixel
	for _, cdc := range []Codec{RLE{}, TRLE{}, Raw{}} {
		enc := cdc.EncodeAppend(nil, pix)
		// Cut the tail at every suffix length that stays parseable for the
		// codec's framing (RLE needs multiples of 3 to reach the underflow
		// check rather than the framing check; any cut must still error).
		for cut := 1; cut <= len(enc); cut += 7 {
			short := enc[:len(enc)-cut]
			if _, err := cdc.DecodeInto(nil, short, npix); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: truncated stream (cut %d) decoded without ErrCorrupt: %v", cdc.Name(), cut, err)
			}
			if err := cdc.CheckStream(short, npix); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: CheckStream accepted truncated stream (cut %d): %v", cdc.Name(), cut, err)
			}
		}
		// An RLE-framing-aligned truncation decodes cleanly as a stream but
		// yields too few pixels — the pure underflow case.
		if cdc.Name() == "rle" {
			short := enc[:len(enc)-3]
			if _, err := cdc.DecodeInto(nil, short, npix); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rle: run-aligned truncation not rejected: %v", err)
			}
		}
	}
}

// TestCheckStreamMatchesDecodeInto: CheckStream must accept exactly the
// streams DecodeInto accepts.
func TestCheckStreamMatchesDecodeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, cdc := range []Codec{RLE{}, TRLE{}, Raw{}} {
		for class, pix := range imageClasses(rng) {
			npix := len(pix) / raster.BytesPerPixel
			enc := cdc.EncodeAppend(nil, pix)
			if err := cdc.CheckStream(enc, npix); err != nil {
				t.Fatalf("%s/%s: CheckStream rejected a valid stream: %v", cdc.Name(), class, err)
			}
			for trial := 0; trial < 40; trial++ {
				mut := append([]uint8(nil), enc...)
				switch trial % 3 {
				case 0:
					if len(mut) == 0 {
						continue
					}
					mut[rng.Intn(len(mut))] ^= uint8(1 + rng.Intn(255))
				case 1:
					mut = mut[:rng.Intn(len(mut)+1)]
				case 2:
					mut = append(mut, uint8(rng.Intn(256)))
				}
				_, derr := cdc.DecodeInto(nil, mut, npix)
				cerr := cdc.CheckStream(mut, npix)
				if (derr == nil) != (cerr == nil) {
					t.Fatalf("%s/%s: CheckStream/DecodeInto disagree on mutated stream: decode=%v check=%v",
						cdc.Name(), class, derr, cerr)
				}
			}
		}
	}
}

// TestDecodeOverMatchesDecodeThenCompose: the fused kernel against its
// oracle, both orientations, over residents that include non-canonical
// blanks and full word classes.
func TestDecodeOverMatchesDecodeThenCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, cdc := range []Codec{RLE{}, TRLE{}, Raw{}} {
		for class, pix := range imageClasses(rng) {
			npix := len(pix) / raster.BytesPerPixel
			enc := cdc.EncodeAppend(nil, pix)
			if _, err := cdc.DecodeInto(nil, enc, npix); err != nil {
				continue // class not encodable by this codec (never happens today)
			}
			for _, encFront := range []bool{true, false} {
				resident := make([]uint8, 2*npix)
				for i := 0; i < npix; i++ {
					switch rng.Intn(5) {
					case 0: // canonical blank
					case 1: // non-canonical blank
						resident[2*i] = uint8(1 + rng.Intn(255))
					case 2:
						resident[2*i], resident[2*i+1] = uint8(rng.Intn(256)), 255
					default:
						resident[2*i], resident[2*i+1] = uint8(rng.Intn(256)), uint8(1+rng.Intn(254))
					}
				}
				decoded, err := cdc.DecodeInto(nil, enc, npix)
				if err != nil {
					t.Fatal(err)
				}
				want := append([]uint8(nil), resident...)
				if encFront {
					compose.OverU8(want, decoded, want)
				} else {
					compose.OverU8(want, want, decoded)
				}
				got := append([]uint8(nil), resident...)
				n, err := cdc.DecodeOver(got, enc, npix, encFront)
				if err != nil {
					t.Fatalf("%s/%s encFront=%v: DecodeOver failed: %v", cdc.Name(), class, encFront, err)
				}
				if n != npix {
					t.Fatalf("%s/%s encFront=%v: DecodeOver reported %d pixels, want %d",
						cdc.Name(), class, encFront, n, npix)
				}
				if !bytes.Equal(got, want) {
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s/%s encFront=%v: fused result differs at byte %d: got %d want %d",
								cdc.Name(), class, encFront, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestMaskTRLEMatchesReference: the packed-bitmap mask encoder against the
// At-based scalar, across sizes including odd widths/heights and widths
// crossing the 64-bit word boundary.
func TestMaskTRLEMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, dim := range []struct{ w, h int }{
		{1, 1}, {2, 2}, {3, 3}, {5, 4}, {8, 8}, {63, 5}, {64, 4}, {65, 3}, {130, 7}, {16, 1},
	} {
		for _, density := range []float64{0, 0.2, 0.5, 0.9, 1} {
			m := NewMask(dim.w, dim.h)
			for i := range m.Bits {
				m.Bits[i] = rng.Float64() < density
			}
			want := refEncodeMaskTRLE(m)
			got := EncodeMaskTRLE(m)
			if !bytes.Equal(got, want) {
				t.Fatalf("mask %dx%d density %.1f: encoder differs\n got %v\nwant %v",
					dim.w, dim.h, density, got, want)
			}
			dec, err := DecodeMaskTRLE(got, dim.w, dim.h)
			if err != nil {
				t.Fatalf("mask %dx%d: decode failed: %v", dim.w, dim.h, err)
			}
			for i := range m.Bits {
				if dec.Bits[i] != m.Bits[i] {
					t.Fatalf("mask %dx%d: roundtrip differs at bit %d", dim.w, dim.h, i)
				}
			}
		}
	}
}

// fuzzDifferential cross-checks the word-wide codec against its scalar
// reference on arbitrary inputs: identical encode bytes, identical decode
// acceptance and pixels, and a fused decode+over identical to
// decode-then-compose. This is the old-vs-new cross-check fuzz-smoke runs
// in CI.
func fuzzDifferential(f *testing.F, name string, canonical bool) {
	for _, seed := range templateSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{7, 255}, 64))
	f.Add(bytes.Repeat([]byte{0, 0}, 64))
	f.Add([]byte{1, 0, 2, 0, 3, 0}) // non-canonical blanks
	// Truncated-tail seeds: valid encodings cut short, so the corpus drives
	// the hostile-stream half straight into the underflow checks.
	full := RLE{}.EncodeAppend(nil, bytes.Repeat([]byte{9, 200}, 300))
	f.Add(full[:len(full)-3])
	f.Add(full[:len(full)-1])
	tfull := TRLE{}.EncodeAppend(nil, bytes.Repeat([]byte{9, 200, 0, 0}, 150))
	f.Add(tfull[:len(tfull)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		var cdc Codec = RLE{}
		if name == "trle" {
			cdc = TRLE{}
		}
		npix := len(data) / raster.BytesPerPixel
		pix := data[:npix*raster.BytesPerPixel]
		if canonical {
			pix = canonicalize(pix)
		}
		enc := cdc.EncodeAppend(nil, pix)
		if want := refEncode(name, pix); !bytes.Equal(enc, want) {
			t.Fatalf("encode differs from scalar reference: got %v want %v", enc, want)
		}

		// The same input viewed as a hostile stream: acceptance and output
		// must match the scalar decoder for every claimed size.
		for _, claim := range []int{0, 1, npix, npix + 3} {
			want, werr := refDecode(name, data, claim)
			got, gerr := cdc.DecodeInto(nil, data, claim)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("claim %d: decoders disagree: ref err=%v new err=%v", claim, werr, gerr)
			}
			cerr := cdc.CheckStream(data, claim)
			if (cerr == nil) != (gerr == nil) {
				t.Fatalf("claim %d: CheckStream disagrees with DecodeInto: check=%v decode=%v", claim, cerr, gerr)
			}
			if werr != nil {
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("claim %d: decode differs from scalar reference", claim)
			}
			// Fused decode+over vs decode-then-compose on a patterned
			// resident (deterministic, covers blank/opaque/partial).
			for _, encFront := range []bool{true, false} {
				resident := make([]byte, 2*claim)
				for i := 0; i < claim; i++ {
					switch i % 4 {
					case 0:
					case 1:
						resident[2*i], resident[2*i+1] = uint8(i), 255
					case 2:
						resident[2*i], resident[2*i+1] = uint8(i), uint8(1+i%254)
					case 3:
						resident[2*i] = uint8(i) | 1 // non-canonical blank
					}
				}
				wantOver := append([]byte(nil), resident...)
				if encFront {
					compose.OverU8(wantOver, want, wantOver)
				} else {
					compose.OverU8(wantOver, wantOver, want)
				}
				gotOver := append([]byte(nil), resident...)
				n, err := cdc.DecodeOver(gotOver, data, claim, encFront)
				if err != nil {
					t.Fatalf("claim %d: DecodeOver rejected a stream DecodeInto accepted: %v", claim, err)
				}
				if n != claim || !bytes.Equal(gotOver, wantOver) {
					t.Fatalf("claim %d encFront=%v: fused result differs (n=%d)", claim, encFront, n)
				}
			}
		}
	})
}

func FuzzRLEDifferential(f *testing.F) { fuzzDifferential(f, "rle", false) }

func FuzzTRLEDifferential(f *testing.F) { fuzzDifferential(f, "trle", true) }

// TestDecodeOverBlankInAllSetRun: TRLE.DecodeOver does not re-scan an
// all-set run's payload for blank pixels, because CheckStream rejects them
// first. A stream with one is refused by CheckStream, and DecodeOver on it,
// in either orientation, neither panics nor writes outside dst.
func TestDecodeOverBlankInAllSetRun(t *testing.T) {
	const npix, set = 64, 32 // one all-set run of eight groups, then blanks
	pix := make([]uint8, 2*npix)
	for i := 0; i < set; i++ {
		pix[2*i], pix[2*i+1] = uint8(i), uint8(1+7*i)
	}
	enc := TRLE{}.EncodeAppend(nil, pix)
	if Resolve(TRLE{}, enc, npix) != (TRLE{}) {
		t.Fatalf("the %d-byte stream escaped to raw", len(enc))
	}
	ncodes, hn := binary.Uvarint(enc)
	payload := hn + int(ncodes)
	if enc[hn] != 0x0F|uint8(set/templatePixels-1)<<4 || len(enc)-payload != 2*set {
		t.Fatalf("stream is not one all-set run of %d pixels: codes % x, %d payload bytes",
			set, enc[hn:payload], len(enc)-payload)
	}
	for _, k := range []int{0, 5, set - 1} {
		bad := append([]uint8(nil), enc...)
		bad[payload+2*k+1] = 0
		if err := (TRLE{}).CheckStream(bad, npix); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("pixel %d blank: CheckStream = %v, want ErrCorrupt", k, err)
		}
		for _, encFront := range []bool{true, false} {
			const guard = 16
			buf := make([]uint8, guard+2*npix+guard)
			for i := range buf {
				buf[i] = 0xA5
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("pixel %d blank, encFront=%v: DecodeOver panicked: %v", k, encFront, r)
					}
				}()
				_, _ = TRLE{}.DecodeOver(buf[guard:guard+2*npix:guard+2*npix], bad, npix, encFront)
			}()
			for i, b := range buf {
				if (i < guard || i >= guard+2*npix) && b != 0xA5 {
					t.Fatalf("pixel %d blank, encFront=%v: DecodeOver wrote byte %d outside dst", k, encFront, i-guard)
				}
			}
		}
	}
}
