package compositor

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rtcomp/internal/bufpool"
	"rtcomp/internal/codec"
	"rtcomp/internal/compose"
	"rtcomp/internal/fragstore"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/transport/faulty"
)

// The raw-escape suite: a block never leaves a rank larger than its pixels,
// whatever the codec, and the receiver tells the two wire forms apart by
// length alone. See codec.EncodeCapped / codec.Resolve.

var escapeCodecs = []codec.Codec{codec.Raw{}, codec.RLE{}, codec.TRLE{}}

// blockWithPureLen searches seeded 1-row layers for one whose pure cdc
// stream is exactly delta bytes longer than its pixels. Blank margins, blank
// interior pixels and repeats are all in the mix, so every codec's length
// formula can be steered to either side of raw.
func blockWithPureLen(cdc codec.Codec, delta int) *raster.Image {
	sizes := []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 20, 24, 130, 131, 132, 200}
	for _, n := range sizes {
		for seed := int64(0); seed < 400; seed++ {
			rng := rand.New(rand.NewSource(seed))
			img := raster.New(n, 1)
			lead, trail := rng.Intn(3), rng.Intn(3)
			blank, repeat := rng.Float64()*0.5, rng.Float64()*0.5
			for i := lead; i < n-trail; i++ {
				switch x := rng.Float64(); {
				case x < blank:
				case x < blank+repeat && i > 0:
					img.Pix[2*i], img.Pix[2*i+1] = img.Pix[2*i-2], img.Pix[2*i-1]
				default:
					img.Pix[2*i], img.Pix[2*i+1] = uint8(rng.Intn(256)), 255
				}
			}
			if len(cdc.EncodeAppend(nil, img.Pix)) == len(img.Pix)+delta {
				return img
			}
		}
	}
	return nil
}

// shipBlock takes block b from front, frames it as a block message, parses
// the message back and merges it into back — the send and merge halves of a
// composition step without a fabric between them. It returns the wire bytes
// the message reported.
func shipBlock(t *testing.T, front, back *fragstore.Store, b schedule.Block, cdc codec.Codec) int64 {
	t.Helper()
	frags, err := front.Take(b)
	if err != nil {
		t.Fatal(err)
	}
	msg, raw, wire := EncodeFragmentsAppend(nil, frags, cdc)
	if wire > raw {
		t.Fatalf("message ships %d wire bytes for %d raw", wire, raw)
	}
	parsed, err := parseEncodedFragments(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, ef := range parsed {
		sum += int64(len(ef.Enc))
	}
	if sum != wire {
		t.Fatalf("envelope carries %d encoded bytes, message reported %d", sum, wire)
	}
	if _, err := back.MergeEncoded(b, parsed, cdc); err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestEscapeBoundaryRoundTrip is the boundary table: blocks whose pure
// encoding is one byte under, exactly at and one byte over the raw length
// travel envelope -> parse -> MergeEncoded for every codec. Only the first
// ships compressed; a stream of exactly the raw length must already be
// escaped, or the receiver — which has nothing but the length to go by —
// would read it as pixels.
func TestEscapeBoundaryRoundTrip(t *testing.T) {
	sched := &schedule.Schedule{Name: "pair", P: 2, Tiles: 1}
	b := schedule.Block{Tile: 0}
	for _, cdc := range escapeCodecs {
		for _, delta := range []int{-1, 0, 1} {
			t.Run(fmt.Sprintf("%s/raw%+d", cdc.Name(), delta), func(t *testing.T) {
				img := blockWithPureLen(cdc, delta)
				if img == nil {
					if cdc.Name() == "raw" && delta != 0 {
						return // the identity codec has one length only
					}
					t.Fatalf("no block with a pure %s stream of raw%+d bytes found", cdc.Name(), delta)
				}
				behind := raster.RandomBinaryImage(rand.New(rand.NewSource(9)), img.W, 1, 0.3)
				front := fragstore.New(0, sched, img)
				back := fragstore.New(1, sched, behind)
				wire := shipBlock(t, front, back, b, cdc)
				want := int64(len(img.Pix))
				if delta < 0 {
					want += int64(delta)
				}
				if wire != want {
					t.Fatalf("shipped %d bytes, want %d (raw %d)", wire, want, len(img.Pix))
				}
				ref := compose.SerialComposite([]*raster.Image{img, behind})
				if got := back.Frags(b); len(got) != 1 || !bytes.Equal(got[0].Data, ref.Pix) {
					t.Fatal("merged block differs from front over back")
				}
			})
		}
	}
}

// TestEscapeEmptyFragment: a block with no pixels (a one-pixel tile halved)
// ships zero payload bytes under every codec — TRLE's pure stream for it is
// one header byte — and merges as a no-op.
func TestEscapeEmptyFragment(t *testing.T) {
	sched := &schedule.Schedule{Name: "pair", P: 2, Tiles: 1}
	empty := schedule.Block{Tile: 0, Level: 1, Index: 1}
	for _, cdc := range escapeCodecs {
		img := raster.RandomBinaryImage(rand.New(rand.NewSource(3)), 1, 1, 0)
		front, back := fragstore.New(0, sched, img), fragstore.New(1, sched, img)
		front.HalveAll()
		back.HalveAll()
		if n := back.Span(empty).Len(); n != 0 {
			t.Fatalf("block %v has %d pixels, want none", empty, n)
		}
		if wire := shipBlock(t, front, back, empty, cdc); wire != 0 {
			t.Fatalf("%s: empty fragment shipped %d bytes", cdc.Name(), wire)
		}
		if got := back.Frags(empty); len(got) != 1 || got[0].Rng != (schedule.RankRange{Lo: 0, Hi: 2}) {
			t.Fatalf("%s: empty fragment did not merge", cdc.Name())
		}
	}
}

// escapeLayerFamilies are binary-alpha layer sets (so the u8 over operator
// is exactly associative and every run is comparable byte for byte) on both
// sides of the codecs' break-even point: noise no codec can shrink, sparse
// layers every codec shrinks, and layers whose top half is noise and bottom
// half blank, so one run — often one message — mixes both wire forms.
func escapeLayerFamilies(p, w, h int) map[string][]*raster.Image {
	rng := rand.New(rand.NewSource(77))
	fam := map[string][]*raster.Image{}
	for name, blank := range map[string]float64{"noise": 0.10, "sparse": 0.92} {
		for r := 0; r < p; r++ {
			fam[name] = append(fam[name], raster.RandomBinaryImage(rng, w, h, blank))
		}
	}
	for r := 0; r < p; r++ {
		img := raster.RandomBinaryImage(rng, w, h, 0.05)
		clear(img.Pix[len(img.Pix)/2:])
		fam["half"] = append(fam["half"], img)
	}
	return fam
}

// TestEscapeDifferentialAgainstRaw runs every schedule under rle and trle on
// the three layer families, synchronous and pipelined, and holds
// each run to the same run under codec.Raw and to the serial composite,
// byte for byte — and to the invariant itself: no rank ships more wire
// bytes than raw bytes, and on noise RLE ships exactly the raw bytes.
func TestEscapeDifferentialAgainstRaw(t *testing.T) {
	const p, w, h = 4, 40, 12
	for fname, layers := range escapeLayerFamilies(p, w, h) {
		want := compose.SerialComposite(layers)
		for _, m := range methods() {
			if !m.okFor(p) {
				continue
			}
			sched, err := m.build(p)
			if err != nil {
				t.Fatal(err)
			}
			rawRun := runInprocPipe(t, sched, layers, Options{Codec: codec.Raw{}, GatherRoot: 0})
			golden := rawRun.mustFinal(t)
			if !raster.Equal(golden, want) {
				t.Fatalf("%s/%s: raw run differs from the serial composite", fname, m.name)
			}
			for _, cdc := range escapeCodecs[1:] {
				for _, opts := range []Options{{Codec: cdc, GatherRoot: 0}, pipeOptions(cdc)} {
					name := fmt.Sprintf("%s/%s/%s/pipe=%v", fname, m.name, cdc.Name(), opts.Pipeline.Enabled)
					o := runInprocPipe(t, sched, layers, opts)
					if got := o.mustFinal(t); !raster.Equal(got, golden) {
						t.Fatalf("%s: differs from the raw run: maxdiff=%d", name, raster.MaxDiff(got, golden))
					}
					var raw, wire int64
					for r, rep := range o.reports {
						if rep.WireBytes > rep.RawBytes {
							t.Fatalf("%s: rank %d shipped %d wire bytes for %d raw", name, r, rep.WireBytes, rep.RawBytes)
						}
						if rep.RawBytes != rawRun.reports[r].RawBytes {
							t.Fatalf("%s: rank %d raw bytes %d, raw run %d", name, r, rep.RawBytes, rawRun.reports[r].RawBytes)
						}
						raw, wire = raw+rep.RawBytes, wire+rep.WireBytes
					}
					switch {
					case fname == "noise" && cdc.Name() == "rle" && wire != raw:
						t.Fatalf("%s: RLE on noise shipped %d bytes, want the raw %d", name, wire, raw)
					case fname != "noise" && wire >= raw:
						t.Fatalf("%s: shipped %d bytes for %d raw; compressible blocks must still compress", name, wire, raw)
					}
				}
			}
		}
	}
}

// TestEscapeGeneralAlphaTolerance: escaped general-alpha noise stays within
// the tolerance the compressed path has always been held to.
func TestEscapeGeneralAlphaTolerance(t *testing.T) {
	const p = 6
	rng := rand.New(rand.NewSource(43))
	layers := make([]*raster.Image, p)
	for r := range layers {
		layers[r] = raster.RandomImage(rng, 64, 16, 0.10)
	}
	want := compose.SerialCompositeF(layers)
	for _, m := range methods() {
		if !m.okFor(p) {
			continue
		}
		sched, err := m.build(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{Codec: codec.RLE{}, GatherRoot: 0}, pipeOptions(codec.RLE{})} {
			got := runInprocPipe(t, sched, layers, opts).mustFinal(t)
			if d := raster.MaxDiff(got, want); d > 3 {
				t.Fatalf("%s pipe=%v: max diff %d vs float reference", m.name, opts.Pipeline.Enabled, d)
			}
		}
	}
}

// TestEscapeRecoverOnNoise kills a rank under the Recover policy on noise:
// every block of both epochs travels escaped, and the survivors must still
// certify the fault-free image.
func TestEscapeRecoverOnNoise(t *testing.T) {
	sched, err := schedule.RT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	layers := escapeLayerFamilies(4, 32, 32)["noise"]
	want := compose.SerialComposite(layers)
	const die = 2
	o := runRecoverCase(t, sched, layers, map[int]int{die: 1}, recoverOptions(codec.RLE{}))
	if err := o.errs[die]; !errors.Is(err, faulty.ErrDead) {
		t.Fatalf("dead rank error = %v, want ErrDead", err)
	}
	for r, err := range o.errs {
		if r != die && err != nil {
			t.Fatalf("survivor rank %d failed: %v", r, err)
		}
	}
	if o.final == nil || !raster.Equal(o.final, want) {
		t.Fatal("recovered image differs from the fault-free golden")
	}
	for r, rep := range o.reports {
		if r == die {
			continue
		}
		if !rep.Recovered || rep.Degraded {
			t.Fatalf("rank %d: Recovered=%v Degraded=%v", r, rep.Recovered, rep.Degraded)
		}
		if rep.WireBytes > rep.RawBytes {
			t.Fatalf("rank %d shipped %d wire bytes for %d raw", r, rep.WireBytes, rep.RawBytes)
		}
	}
}

// FuzzBlockMessageDecode drives arbitrary bytes through the receive half of
// a step — envelope parse, per-fragment resolve, MergeEncoded — for every
// codec. Nothing may panic, every rejection wraps codec.ErrCorrupt, and a
// rejected message must leave the store as it was, its buffer still the
// store's alone (a buffer recycled twice would surface as a mutated store
// many iterations later). Seeds are real messages holding escaped and
// compressed fragments, the same fragments listed back to front, and a batch
// that is depth-adjacent to the resident fragment before it overlaps it.
func FuzzBlockMessageDecode(f *testing.F) {
	const w, h = 8, 2
	sched := &schedule.Schedule{Name: "pair", P: 3, Tiles: 1}
	b := schedule.Block{Tile: 0}
	rng := rand.New(rand.NewSource(6))
	noise := raster.RandomImage(rng, w, h, 0)
	sparse := raster.RandomImage(rng, w, h, 0.8)
	for ci, cdc := range escapeCodecs {
		msg, _, _ := EncodeFragmentsAppend(nil, []fragstore.Fragment{
			{Rng: schedule.RankRange{Lo: 0, Hi: 1}, Data: noise.Pix},
			{Rng: schedule.RankRange{Lo: 2, Hi: 3}, Data: sparse.Pix},
		}, cdc)
		f.Add(uint8(ci), msg)
		f.Add(uint8(ci), msg[:len(msg)-1])
		overlap, _, _ := EncodeFragmentsAppend(nil, []fragstore.Fragment{
			{Rng: schedule.RankRange{Lo: 0, Hi: 1}, Data: noise.Pix},
			{Rng: schedule.RankRange{Lo: 1, Hi: 3}, Data: sparse.Pix},
		}, cdc)
		f.Add(uint8(ci), overlap)
		reversed, _, _ := EncodeFragmentsAppend(nil, []fragstore.Fragment{
			{Rng: schedule.RankRange{Lo: 2, Hi: 3}, Data: sparse.Pix},
			{Rng: schedule.RankRange{Lo: 0, Hi: 1}, Data: noise.Pix},
		}, cdc)
		f.Add(uint8(ci), reversed)
	}
	f.Add(uint8(1), []byte{})
	resident := raster.RandomImage(rng, w, h, 0.3)
	f.Fuzz(func(t *testing.T, ci uint8, payload []byte) {
		cdc := escapeCodecs[int(ci)%len(escapeCodecs)]
		parsed, err := parseEncodedFragments(nil, payload)
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("envelope error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		st := fragstore.New(1, sched, resident)
		_, err = st.MergeEncoded(b, parsed, cdc)
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("merge error does not wrap ErrCorrupt: %v", err)
			}
			frags := st.Frags(b)
			if len(frags) != 1 || !bytes.Equal(frags[0].Data, resident.Pix) {
				t.Fatal("store mutated by a corrupt message")
			}
		}
		st.Release()
		x, y := bufpool.Get(len(resident.Pix)), bufpool.Get(len(resident.Pix))
		if &x[0] == &y[0] {
			t.Fatal("a store buffer was recycled twice")
		}
		bufpool.Put(x)
		bufpool.Put(y)
	})
}
