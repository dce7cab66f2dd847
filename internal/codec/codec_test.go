package codec

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rtcomp/internal/raster"
)

func roundTrip(t *testing.T, c Codec, im *raster.Image) {
	t.Helper()
	enc := c.EncodeAppend(nil, im.Pix)
	dec, err := c.DecodeInto(nil, enc, im.NPixels())
	if err != nil {
		t.Fatalf("%s: decode error: %v", c.Name(), err)
	}
	if !bytes.Equal(dec, im.Pix) {
		t.Fatalf("%s: round trip mismatch", c.Name())
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	images := []*raster.Image{
		raster.New(16, 16),                        // all blank
		raster.RandomImage(rng, 16, 16, 0.0),      // dense
		raster.RandomImage(rng, 16, 16, 0.5),      // half blank
		raster.RandomImage(rng, 16, 16, 0.95),     // sparse
		raster.PartialImage(rng, 64, 64, 2, 8),    // realistic partial
		raster.RandomImage(rng, 1, 1, 0.5),        // single pixel
		raster.RandomImage(rng, 7, 3, 0.3),        // not a multiple of 4 pixels
		raster.RandomBinaryImage(rng, 33, 9, 0.7), // odd size, binary alpha
	}
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range images {
			roundTrip(t, c, im)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	for _, name := range []string{"rle", "trle"} {
		c, _ := ByName(name)
		f := func(raw []uint8, blankEvery uint8) bool {
			if len(raw)%2 == 1 {
				raw = raw[:len(raw)-1]
			}
			// Punch blank holes so the codecs exercise both paths.
			for i := 1; i < len(raw); i += 2 {
				if blankEvery > 0 && uint8(i)%blankEvery == 0 {
					raw[i] = 0
				}
				if raw[i] == 0 {
					raw[i-1] = 0 // blank pixels are canonically (0,0)
				}
			}
			enc := c.EncodeAppend(nil, raw)
			dec, err := c.DecodeInto(nil, enc, len(raw)/2)
			return err == nil && bytes.Equal(dec, raw)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TRLE requires blank pixels to be canonical (0,0): alpha 0 pixels lose
// their value channel. This documents that contract.
func TestTRLEDropsBlankValues(t *testing.T) {
	pix := []uint8{42, 0, 7, 255} // blank pixel with a stale value, then opaque
	var c TRLE
	dec, err := c.DecodeInto(nil, c.EncodeAppend(nil, pix), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{0, 0, 7, 255}
	if !bytes.Equal(dec, want) {
		t.Fatalf("got %v, want %v", dec, want)
	}
}

func TestDecodeErrors(t *testing.T) {
	var trle TRLE
	if _, err := trle.DecodeInto(nil, nil, 4); err == nil {
		t.Fatal("TRLE empty stream: want error")
	}
	// Codes claiming fewer pixels than npix.
	enc := trle.EncodeAppend(nil, []uint8{1, 1, 2, 2, 3, 3, 4, 4}) // 4 pixels
	if _, err := trle.DecodeInto(nil, enc, 8); err == nil {
		t.Fatal("TRLE short codes: want error")
	}
	// Truncated payload.
	if _, err := trle.DecodeInto(nil, enc[:len(enc)-1], 4); err == nil {
		t.Fatal("TRLE truncated payload: want error")
	}
	var rle RLE
	if _, err := rle.DecodeInto(nil, []uint8{1, 2}, 1); err == nil {
		t.Fatal("RLE ragged stream: want error")
	}
	if _, err := rle.DecodeInto(nil, []uint8{0, 2, 3}, 1); err == nil {
		t.Fatal("RLE zero run: want error")
	}
	if _, err := rle.DecodeInto(nil, []uint8{2, 5, 5}, 1); err == nil {
		t.Fatal("RLE overlong: want error")
	}
	var raw Raw
	if _, err := raw.DecodeInto(nil, []uint8{1}, 1); err == nil {
		t.Fatal("raw size mismatch: want error")
	}
}

func TestByNameUnknown(t *testing.T) {
	for _, name := range []string{"zip", "RLE"} {
		_, err := ByName(name)
		if err == nil || !strings.Contains(err.Error(), "raw, rle, trle") {
			t.Fatalf("ByName(%q): err = %v, want one listing raw, rle, trle", name, err)
		}
	}
	c, err := ByName("")
	if err != nil || c.Name() != "raw" {
		t.Fatalf("empty name should alias raw, got %v, %v", c, err)
	}
}

// The sparser the image, the better TRLE must do; and on sparse gray images
// TRLE must beat RLE (the paper's motivating claim).
func TestTRLEBeatsRLEOnSparseGray(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	im := raster.PartialImage(rng, 256, 256, 3, 8)
	raw := len(im.Pix)
	rle := len(RLE{}.EncodeAppend(nil, im.Pix))
	trle := len(TRLE{}.EncodeAppend(nil, im.Pix))
	if trle >= rle {
		t.Fatalf("TRLE (%d bytes) not better than RLE (%d bytes) on sparse gray image", trle, rle)
	}
	if rle >= raw {
		t.Fatalf("RLE (%d bytes) not better than raw (%d)", rle, raw)
	}
}

func TestCompressionMonotoneInBlankness(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	prev := -1
	for _, blank := range []float64{0.2, 0.5, 0.8, 0.95} {
		im := raster.RandomImage(rng, 128, 128, blank)
		n := len(TRLE{}.EncodeAppend(nil, im.Pix))
		if prev >= 0 && n >= prev {
			t.Fatalf("TRLE size did not shrink with blankness: %d -> %d at blank=%v", prev, n, blank)
		}
		prev = n
	}
}

// --- Figure 3 / Figure 4 reproductions -------------------------------------

func TestTemplateTable(t *testing.T) {
	tab := TemplateTable()
	if tab[0] != [2][2]bool{} {
		t.Fatal("template 0 must be all blank")
	}
	if tab[15] != [2][2]bool{{true, true}, {true, true}} {
		t.Fatal("template 15 must be all set")
	}
	if tab[8] != [2][2]bool{{true, false}, {false, false}} {
		t.Fatal("template 8 must be top-left only")
	}
	// All 16 distinct.
	seen := map[[2][2]bool]bool{}
	for _, g := range tab {
		if seen[g] {
			t.Fatal("duplicate template")
		}
		seen[g] = true
	}
}

// figure4Mask builds the two 12-pixel scanlines of Figure 4, reconstructed
// from the RLE codes the paper lists for them: 1,2,1,1,1,3,1,1,1 and
// 1,2,1,1,1,2,2,1,1 with the first run blank.
func figure4Mask() *Mask {
	rows := [2][]uint8{
		{1, 2, 1, 1, 1, 3, 1, 1, 1},
		{1, 2, 1, 1, 1, 2, 2, 1, 1},
	}
	m := NewMask(12, 2)
	for y, runs := range rows {
		x := 0
		set := false // first run is blank
		for _, r := range runs {
			for j := uint8(0); j < r; j++ {
				m.Set(x, y, set)
				x++
			}
			set = !set
		}
	}
	return m
}

// TestFigure4Ratio reproduces the paper's Figure 4 example exactly: the RLE
// encoding takes 18 bytes, the TRLE encoding the five bytes 5 26 15 8 10,
// so the compression ratio is 18:5.
func TestFigure4Ratio(t *testing.T) {
	m := figure4Mask()
	rleTotal := 0
	for y := 0; y < 2; y++ {
		row := make([]bool, 12)
		copy(row, m.Bits[y*12:(y+1)*12])
		runs, first := EncodeMaskRLE(row)
		if first {
			t.Fatal("figure 4 scanlines start blank")
		}
		rleTotal += len(runs)
	}
	if rleTotal != 18 {
		t.Fatalf("RLE total = %d bytes, paper says 18", rleTotal)
	}
	codes := EncodeMaskTRLE(m)
	want := []uint8{5, 26, 15, 8, 10}
	if !bytes.Equal(codes, want) {
		t.Fatalf("TRLE codes = %v, paper says %v", codes, want)
	}
	if Ratio(rleTotal, len(codes)) != 18.0/5.0 {
		t.Fatalf("ratio = %v, want 18:5", Ratio(rleTotal, len(codes)))
	}
}

func TestMaskTRLERoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, dim := range [][2]int{{12, 2}, {13, 5}, {1, 1}, {64, 64}, {3, 8}} {
		m := NewMask(dim[0], dim[1])
		for i := range m.Bits {
			m.Bits[i] = rng.Intn(3) == 0
		}
		codes := EncodeMaskTRLE(m)
		got, err := DecodeMaskTRLE(codes, dim[0], dim[1])
		if err != nil {
			t.Fatalf("%v: %v", dim, err)
		}
		for i := range m.Bits {
			if got.Bits[i] != m.Bits[i] {
				t.Fatalf("%v: bit %d differs", dim, i)
			}
		}
	}
}

func TestMaskRLERoundTripProperty(t *testing.T) {
	f := func(bits []bool) bool {
		runs, first := EncodeMaskRLE(bits)
		got := DecodeMaskRLE(runs, first)
		if len(bits) == 0 {
			return len(got) == 0
		}
		if len(got) != len(bits) {
			return false
		}
		for i := range bits {
			if got[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskRLELongRun(t *testing.T) {
	bits := make([]bool, 1000) // one run of 1000 blanks, needs cap handling
	runs, first := EncodeMaskRLE(bits)
	got := DecodeMaskRLE(runs, first)
	if len(got) != 1000 {
		t.Fatalf("decoded %d bits, want 1000", len(got))
	}
	for i, b := range got {
		if b {
			t.Fatalf("bit %d flipped", i)
		}
	}
}

func TestMaskTRLECorruptStreams(t *testing.T) {
	if _, err := DecodeMaskTRLE([]uint8{0x00}, 8, 8); err == nil {
		t.Fatal("short code stream: want error")
	}
	long := make([]uint8, 64)
	if _, err := DecodeMaskTRLE(long, 2, 2); err == nil {
		t.Fatal("overlong code stream: want error")
	}
}

// benchSink keeps the benchmarked calls' results alive.
var benchSink []uint8

// BenchmarkTRLEEncode times the one encode kernel into a reused buffer, so
// the allocator is not part of it, on 512² blocks: the frame ledger's disc
// partial (rank 3 of 8, about 85 % blank), an all-blank block, and noise
// through EncodeCapped at the raw limit. The noise is 1 % blank, which
// TRLE expands by half a percent, so it is the raw escape found only at the
// end of the block (the ledger's 10 % blank noise compresses to 0.97 of
// raw under TRLE). holes is the disc with one pixel in four blank, where
// mixed groups dominate.
func BenchmarkTRLEEncode(b *testing.B) {
	sparse, noise, holes := trleBenchBlocks()
	for _, bc := range []struct {
		name   string
		pix    []uint8
		capped bool
	}{
		{"sparse", sparse, false},
		{"blank", make([]uint8, len(sparse)), false},
		{"noise", noise, true},
		{"holes", holes, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dst := make([]uint8, 0, len(bc.pix))
			b.SetBytes(int64(len(bc.pix)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.capped {
					dst = EncodeCapped(dst[:0], bc.pix, TRLE{})
				} else {
					dst = TRLE{}.EncodeAppend(dst[:0], bc.pix)
				}
			}
			benchSink = dst
		})
	}
}

// trleBenchBlocks draws BenchmarkTRLEEncode's inputs in their order.
func trleBenchBlocks() (sparse, noise, holes []uint8) {
	rng := rand.New(rand.NewSource(1))
	sparse = raster.PartialImage(rng, 512, 512, 3, 8).Pix
	noise = raster.RandomImage(rng, 512, 512, 0.01).Pix
	return sparse, noise, holedDisc(rng)
}

// BenchmarkTRLECheckStream times the validation MergeEncoded runs on every
// TRLE fragment before it composites any, on the encoded sparse and holes
// blocks of BenchmarkTRLEEncode; the payload check is most of it.
func BenchmarkTRLECheckStream(b *testing.B) {
	sparse, _, holes := trleBenchBlocks()
	for _, bc := range []struct {
		name string
		pix  []uint8
	}{{"sparse", sparse}, {"holes", holes}} {
		b.Run(bc.name, func(b *testing.B) {
			enc := TRLE{}.EncodeAppend(nil, bc.pix)
			npix := len(bc.pix) / raster.BytesPerPixel
			b.SetBytes(int64(len(bc.pix)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := (TRLE{}).CheckStream(enc, npix); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// holedDisc is the ledger's disc partial (rank 3 of 8) with one pixel in
// four blanked, so most of its groups are mixed.
func holedDisc(rng *rand.Rand) []uint8 {
	pix := raster.PartialImage(rng, 512, 512, 3, 8).Pix
	for i := 0; i < len(pix); i += raster.BytesPerPixel {
		if rng.Intn(4) == 0 {
			pix[i], pix[i+1] = 0, 0
		}
	}
	return pix
}

// BenchmarkTRLEDecodeOver times the fused receive kernel on the ledger's
// disc partial and on the holed disc, encoded, composited with a resident
// disc partial (rank 4 of 8) as the front layer and as the back. The
// resident is composited in place every iteration; one warm-up composite
// first makes it the union of the two discs, which later iterations keep.
func BenchmarkTRLEDecodeOver(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	im := raster.PartialImage(rng, 512, 512, 3, 8)
	enc := TRLE{}.EncodeAppend(nil, im.Pix)
	holes := TRLE{}.EncodeAppend(nil, holedDisc(rng))
	for _, bc := range []struct {
		name     string
		enc      []uint8
		encFront bool
	}{{"front", enc, true}, {"back", enc, false}, {"holes-front", holes, true}, {"holes-back", holes, false}} {
		b.Run(bc.name, func(b *testing.B) {
			dst := raster.PartialImage(rand.New(rand.NewSource(2)), 512, 512, 4, 8).Pix
			if _, err := (TRLE{}).DecodeOver(dst, bc.enc, im.NPixels(), bc.encFront); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(im.Pix)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (TRLE{}).DecodeOver(dst, bc.enc, im.NPixels(), bc.encFront); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRLEEncode times RLE through EncodeCapped at the raw limit, the
// wire path, into a reused buffer: on the ledger's disc partial, which
// compresses, on the ledger's 10 % blank noise, which every RLE block
// escapes to raw, and on that noise with a 300-pixel run planted in every
// 1200 pixels, which still escapes but stops the run-start count at every
// run. The runs are drawn last, so disc and noise stay what they were.
func BenchmarkRLEEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	disc := raster.PartialImage(rng, 512, 512, 3, 8).Pix
	noise := raster.RandomImage(rng, 512, 512, 0.1).Pix
	runs := append([]uint8(nil), noise...)
	for lo := 0; lo+1200 <= len(runs)/2; lo += 1200 {
		at := lo + rng.Intn(900)
		fillPixelRun(runs[2*at:2*(at+300)], uint8(rng.Intn(256)), uint8(rng.Intn(256)))
	}
	for _, bc := range []struct {
		name string
		pix  []uint8
	}{{"disc", disc}, {"noise", noise}, {"runs", runs}} {
		b.Run(bc.name, func(b *testing.B) {
			dst := make([]uint8, 0, len(bc.pix))
			b.SetBytes(int64(len(bc.pix)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = EncodeCapped(dst[:0], bc.pix, RLE{})
			}
			benchSink = dst
		})
	}
}

func BenchmarkTRLEDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	im := raster.PartialImage(rng, 512, 512, 3, 8)
	enc := TRLE{}.EncodeAppend(nil, im.Pix)
	b.SetBytes(int64(len(im.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (TRLE{}).DecodeInto(nil, enc, im.NPixels()); err != nil {
			b.Fatal(err)
		}
	}
}

// Decoders must reject or cleanly decode arbitrary garbage, never panic.
func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	f := func(garbage []uint8, npix uint16) bool {
		n := int(npix) % 4096
		for _, c := range allCodecs {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: panic on garbage: %v", c.Name(), r)
					}
				}()
				dec, err := c.DecodeInto(nil, garbage, n)
				if err == nil && len(dec) != n*2 {
					t.Errorf("%s: accepted garbage but returned %d bytes for %d pixels",
						c.Name(), len(dec), n)
				}
			}()
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Encoders never produce something their decoder rejects, for any input —
// including non-canonical blanks for RLE/raw (TRLE canonicalises).
func TestEncodeDecodeTotality(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw)%2 == 1 {
			raw = raw[:len(raw)-1]
		}
		for _, c := range []Codec{Raw{}, RLE{}} {
			dec, err := c.DecodeInto(nil, c.EncodeAppend(nil, raw), len(raw)/2)
			if err != nil || !bytes.Equal(dec, raw) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
