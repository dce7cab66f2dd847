package codec

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"rtcomp/internal/raster"
)

// templateSeeds turns the paper's 16 Figure 3 templates into pixel-block
// seed inputs: each 2x2 template flattens to four consecutive pixels, the
// exact window the image-mode TRLE codes with one template byte.
func templateSeeds() [][]byte {
	var seeds [][]byte
	for _, tpl := range TemplateTable() {
		pix := make([]byte, 0, 4*raster.BytesPerPixel)
		v := uint8(1)
		for _, row := range tpl {
			for _, set := range row {
				if set {
					pix = append(pix, v, 255)
					v++
				} else {
					pix = append(pix, 0, 0)
				}
			}
		}
		seeds = append(seeds, pix)
	}
	return seeds
}

// canonicalize clamps every blank pixel's value byte to zero — the part of
// the input TRLE legitimately discards (a blank pixel's value carries no
// compositing contribution), so the roundtrip property is stated on
// canonical blocks.
func canonicalize(pix []byte) []byte {
	out := make([]byte, len(pix))
	copy(out, pix)
	for i := 0; i+1 < len(out); i += raster.BytesPerPixel {
		if out[i+1] == 0 {
			out[i] = 0
		}
	}
	return out
}

// imageFrameSeeds are encoded pixels behind an image header (uvarint width,
// uvarint height): a stream that opens with bytes the codec did not write,
// seeding the hostile-stream half of the property, headers and all.
func imageFrameSeeds(c Codec) [][]byte {
	var seeds [][]byte
	rng := rand.New(rand.NewSource(99))
	for _, dim := range []struct{ w, h int }{{4, 4}, {8, 2}, {1, 1}} {
		img := raster.RandomBinaryImage(rng, dim.w, dim.h, 0.5)
		frame := binary.AppendUvarint(nil, uint64(dim.w))
		frame = binary.AppendUvarint(frame, uint64(dim.h))
		seeds = append(seeds, append(frame, c.EncodeAppend(nil, img.Pix)...))
	}
	// A frame whose header promises more pixels than the payload encodes.
	lying := binary.AppendUvarint(nil, 1<<20)
	lying = binary.AppendUvarint(lying, 1<<20)
	seeds = append(seeds, append(lying, c.EncodeAppend(nil, bytes.Repeat([]byte{9, 255}, 4))...))
	return seeds
}

// fuzzRoundTrip is the shared property: the codec must reproduce any pixel
// block exactly, and its decoder must reject arbitrary malformed streams
// with ErrCorrupt rather than panicking or fabricating pixels.
func fuzzRoundTrip(f *testing.F, c Codec, canonical bool) {
	for _, seed := range templateSeeds() {
		f.Add(seed)
	}
	for _, seed := range imageFrameSeeds(c) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{7, 255}, 64)) // all-opaque run
	f.Add(bytes.Repeat([]byte{0, 0}, 64))   // all-blank run
	f.Add([]byte{1, 2, 3})                  // odd length: exercises the decoder path
	f.Add([]byte{0, 255, 255, 0, 128, 1})   // mixed alpha
	f.Fuzz(func(t *testing.T, data []byte) {
		// Interpret the input as a pixel block (whole pixels only).
		npix := len(data) / raster.BytesPerPixel
		pix := data[:npix*raster.BytesPerPixel]
		if canonical {
			pix = canonicalize(pix)
		}
		enc := c.EncodeAppend(nil, pix)
		dec, err := c.DecodeInto(nil, enc, npix)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !bytes.Equal(dec, pix) {
			t.Fatalf("roundtrip mismatch: pix=%v enc=%v dec=%v", pix, enc, dec)
		}

		// Interpret the same input as a hostile encoded stream: Decode may
		// reject it (any error is fine) but must never panic, and an
		// accepted stream must decode to exactly the promised pixel count.
		for _, claim := range []int{0, 1, npix, npix + 3, 1024} {
			out, err := c.DecodeInto(nil, data, claim)
			if err == nil && len(out) != claim*raster.BytesPerPixel {
				t.Fatalf("decoder accepted a stream but returned %d bytes for %d pixels", len(out), claim)
			}
		}
	})
}

func FuzzTRLERoundTrip(f *testing.F) { fuzzRoundTrip(f, TRLE{}, true) }

func FuzzRLERoundTrip(f *testing.F) { fuzzRoundTrip(f, RLE{}, false) }

func FuzzRawRoundTrip(f *testing.F) { fuzzRoundTrip(f, Raw{}, false) }

func FuzzMaskRLERoundTrip(f *testing.F) {
	f.Add([]byte{0x00}, true)
	f.Add([]byte{0xFF, 0x0F}, false)
	f.Fuzz(func(t *testing.T, data []byte, first bool) {
		// Treat the fuzz bytes as a bit-mask and roundtrip it.
		mask := make([]bool, len(data)*8)
		for i := range mask {
			mask[i] = data[i/8]&(1<<(i%8)) != 0
		}
		runs, f0 := EncodeMaskRLE(mask)
		got := DecodeMaskRLE(runs, f0)
		if len(mask) == 0 {
			if len(got) != 0 {
				t.Fatalf("empty mask decoded to %d elements", len(got))
			}
			return
		}
		if len(got) != len(mask) {
			t.Fatalf("mask roundtrip length %d, want %d", len(got), len(mask))
		}
		for i := range mask {
			if got[i] != mask[i] {
				t.Fatalf("mask roundtrip differs at %d", i)
			}
		}
		// Arbitrary run bytes must decode without panicking whatever they
		// claim (the caller validates the length).
		_ = DecodeMaskRLE(data, first)
	})
}
