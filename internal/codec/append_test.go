package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"rtcomp/internal/raster"
)

var allCodecs = []Codec{Raw{}, RLE{}, TRLE{}}

// EncodeAppend onto a non-empty dst must keep dst's bytes and append exactly
// the stream a fresh EncodeAppend(nil, pix) emits: one wire format, whatever
// buffer it lands in.
func TestEncodeAppendMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	images := []*raster.Image{
		raster.New(16, 16),
		raster.RandomImage(rng, 16, 16, 0.5),
		raster.PartialImage(rng, 64, 64, 2, 8),
		raster.RandomImage(rng, 7, 3, 0.3),
		raster.RandomImage(rng, 1, 1, 0.0),
	}
	for _, c := range allCodecs {
		for _, im := range images {
			fresh := c.EncodeAppend(nil, im.Pix)
			prefix := []uint8{9, 9, 9}
			got := c.EncodeAppend(append([]uint8(nil), prefix...), im.Pix)
			if !bytes.Equal(got[:3], prefix) {
				t.Fatalf("%s: EncodeAppend clobbered dst prefix", c.Name())
			}
			if !bytes.Equal(got[3:], fresh) {
				t.Fatalf("%s: EncodeAppend stream depends on dst", c.Name())
			}
		}
	}
}

func TestDecodeIntoRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, c := range allCodecs {
		im := raster.PartialImage(rng, 32, 32, 2, 8)
		enc := c.EncodeAppend(nil, im.Pix)

		// Fresh (nil dst), undersized dst, and dirty oversized dst must all
		// reproduce the block exactly.
		for _, dst := range [][]uint8{
			nil,
			make([]uint8, 0, 7),
			bytes.Repeat([]uint8{0xAA}, len(im.Pix)+64),
		} {
			dec, err := c.DecodeInto(dst, enc, im.NPixels())
			if err != nil {
				t.Fatalf("%s: DecodeInto: %v", c.Name(), err)
			}
			if !bytes.Equal(dec, im.Pix) {
				t.Fatalf("%s: DecodeInto round trip mismatch", c.Name())
			}
		}
	}
}

// DecodeInto must reuse a big-enough dst and must never alias enc — the two
// halves of the ownership contract the compositor's pooling relies on.
func TestDecodeIntoOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, c := range allCodecs {
		im := raster.PartialImage(rng, 16, 16, 2, 8)
		enc := c.EncodeAppend(nil, im.Pix)

		dst := make([]uint8, len(im.Pix))
		dec, err := c.DecodeInto(dst, enc, im.NPixels())
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if &dec[0] != &dst[0] {
			t.Errorf("%s: DecodeInto did not reuse a sufficient dst", c.Name())
		}
		// Trash enc; the decoded block must be unaffected.
		for i := range enc {
			enc[i] = 0xFF
		}
		if !bytes.Equal(dec, im.Pix) {
			t.Errorf("%s: DecodeInto result aliases enc", c.Name())
		}
	}
}

// EncodeAppend must not retain or alias pix: mutating pix afterwards must
// leave the encoding untouched.
func TestEncodeAppendDoesNotAliasInput(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, c := range allCodecs {
		im := raster.PartialImage(rng, 16, 16, 2, 8)
		enc := c.EncodeAppend(nil, im.Pix)
		want := append([]uint8(nil), enc...)
		for i := range im.Pix {
			im.Pix[i] ^= 0x5A
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("%s: EncodeAppend result aliases pix", c.Name())
		}
	}
}

// Steady state: encode+decode through the append APIs into warm scratch must
// not allocate for any codec.
func TestAppendAPIsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	im := raster.PartialImage(rng, 64, 64, 2, 8)
	for _, c := range allCodecs {
		encScratch := c.EncodeAppend(nil, im.Pix) // warm
		decScratch := make([]uint8, len(im.Pix))
		allocs := testing.AllocsPerRun(50, func() {
			encScratch = c.EncodeAppend(encScratch[:0], im.Pix)
			var err error
			decScratch, err = c.DecodeInto(decScratch, encScratch, im.NPixels())
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm EncodeAppend+DecodeInto allocates %v per op, want 0", c.Name(), allocs)
		}
	}
}
