package compositor

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rtcomp/internal/codec"
	"rtcomp/internal/comm"
	"rtcomp/internal/compose"
	"rtcomp/internal/fragstore"
	"rtcomp/internal/raster"
	"rtcomp/internal/schedule"
	"rtcomp/internal/traceid"
	"rtcomp/internal/transport/inproc"
)

// goldenImage is the 4×3 image the golden frames below were written from.
func goldenImage() *raster.Image {
	img := raster.New(4, 3)
	for i := range img.Pix {
		img.Pix[i] = byte(i * 7)
	}
	clear(img.Pix[8:20])
	return img
}

func unhex(t testing.TB, s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireGolden pins the compositor's frame formats to bytes an earlier
// build's encoders wrote: today's encoders write them and today's decoders
// read them back.
func TestWireGolden(t *testing.T) {
	img, blank := goldenImage(), raster.New(20, 10)

	block := unhex(t, "0200010800070e151c232a3102ac0203c80000")
	frags := []fragstore.Fragment{
		{Rng: schedule.RankRange{Lo: 0, Hi: 1}, Data: img.Pix[:8]},
		{Rng: schedule.RankRange{Lo: 2, Hi: 300}, Data: blank.Pix},
	}
	if got, _, _ := EncodeFragmentsAppend(nil, frags, codec.RLE{}); !bytes.Equal(got, block) {
		t.Errorf("block message encodes to %x, the format is %x", got, block)
	}
	parsed, err := parseEncodedFragments(nil, block)
	if err != nil || len(parsed) != 2 || parsed[0].Rng != frags[0].Rng || parsed[1].Rng != frags[1].Rng ||
		!bytes.Equal(parsed[0].Enc, img.Pix[:8]) || !bytes.Equal(parsed[1].Enc, []byte{0xc8, 0, 0}) {
		t.Errorf("golden block message parses to %+v, %v", parsed, err)
	}

	gather := unhex(t, "0200010000070e151c232a310000000000010100000000000000008c939aa1")
	sched, err := schedule.BinarySwap(2)
	if err != nil {
		t.Fatal(err)
	}
	st := fragstore.New(0, sched, img)
	defer st.Release()
	st.HalveAll()
	scr := newRunScratch()
	defer scr.release()
	if got := encodeFinalBlocks(scr, st); !bytes.Equal(got, gather) {
		t.Errorf("gather payload encodes to %x, the format is %x", got, gather)
	}
	out := raster.New(img.W, img.H)
	if n, err := insertFinalBlocks(out, st.Tiles(), gather, 1); err != nil || n != img.NPixels() || !raster.Equal(out, img) {
		t.Errorf("golden gather payload covers %d of %d pixels, %v", n, img.NPixels(), err)
	}
}

// gatherBlock spells one block of a gather payload.
func gatherBlock(tile, level, index uint64, pix []byte) []byte {
	b := binary.AppendUvarint(nil, tile)
	b = binary.AppendUvarint(b, level)
	b = binary.AppendUvarint(b, index)
	return append(b, pix...)
}

// badGatherPayloads are gather payloads no rank would write, against a frame
// of four 4-pixel tiles, each after one valid block (tile 1, whole).
func badGatherPayloads() map[string][]byte {
	valid := gatherBlock(1, 0, 0, bytes.Repeat([]byte{0xAB}, 4*raster.BytesPerPixel))
	bad := map[string][]byte{
		"tile 9 of 4":         gatherBlock(9, 0, 0, nil),
		"level 63":            gatherBlock(0, 63, 0, nil),
		"level 2^62":          gatherBlock(0, 1<<62, 0, nil),
		"index 2 of level 1":  gatherBlock(0, 1, 2, make([]byte, 2*raster.BytesPerPixel)),
		"truncated pixels":    gatherBlock(2, 0, 0, make([]byte, 4*raster.BytesPerPixel-1)),
		"overlong tile":       append([]byte{0x82, 0x00, 0, 0}, make([]byte, 4*raster.BytesPerPixel)...),
		"block count 2^63":    nil,
		"one byte too many":   nil,
		"one block too short": nil,
	}
	for name, block := range bad {
		if block != nil {
			bad[name] = append(append([]byte{2}, valid...), block...)
		}
	}
	bad["block count 2^63"] = append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, valid...)
	bad["one byte too many"] = append(append([]byte{1}, valid...), 0)
	bad["one block too short"] = append([]byte{2}, valid...)
	return bad
}

// TestGatherPayloadRejectsBadBlock: the gather root checks a block against
// its tiling before it resolves it to a span. A payload naming a tile the
// frame does not have used to index past the tile table (a panic of the
// gather root, under either executor) and one with a large level to halve a
// span that many times (a spin); now every such payload is corrupt, returns
// promptly, and leaves the frame as the valid blocks before the bad one made
// it.
func TestGatherPayloadRejectsBadBlock(t *testing.T) {
	tiles := raster.SplitSpan(raster.Span{Lo: 0, Hi: 16}, 4)
	for name, payload := range badGatherPayloads() {
		out := raster.New(4, 4)
		done := make(chan struct{})
		var n int
		var err error
		go func() {
			defer close(done)
			n, err = insertFinalBlocks(out, tiles, payload, 1)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the gather root spins", name)
		}
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: err = %v, want one wrapping codec.ErrCorrupt", name, err)
		}
		want := raster.New(4, 4)
		wantN := 0
		if payload[0] != 0xff { // the huge count is refused before any block
			want.InsertSpan(tiles[1], bytes.Repeat([]byte{0xAB}, 4*raster.BytesPerPixel))
			wantN = 4
		}
		if n != wantN || !raster.Equal(out, want) {
			t.Errorf("%s: covered %d pixels, want %d, or the frame holds more than its one valid block", name, n, wantN)
		}
	}
}

// gatherCorrupter is a rank that ships "tile 9 of 4" in place of every final
// block message it sends in epoch 0, under either executor's gather tag.
type gatherCorrupter struct {
	comm.Comm
	tiles int
}

func (g *gatherCorrupter) Send(to, tag int, payload []byte) error {
	return g.SendCtx(to, tag, payload, traceid.Context{Step: -1, Tile: -1})
}

func (g *gatherCorrupter) SendCtx(to, tag int, payload []byte, tc traceid.Context) error {
	if tag == gatherTag(0) || tag >= tileGatherTag(0, 0) && tag < tileGatherTag(0, g.tiles) {
		payload = []byte{1, 9, 0, 0}
	}
	return g.Comm.SendCtx(to, tag, payload, tc)
}

// lateNotices is a rank whose epoch-0 FAILED notices reach their peers 100 ms
// late, after its agreement pings: the commit must not rely on a notice
// overtaking the agreement.
type lateNotices struct {
	comm.Comm
	held sync.WaitGroup
}

func (l *lateNotices) Send(to, tag int, payload []byte) error {
	return l.SendCtx(to, tag, payload, traceid.Context{Step: -1, Tile: -1})
}

func (l *lateNotices) SendCtx(to, tag int, payload []byte, tc traceid.Context) error {
	if tag != comm.NoticeTag(0) {
		return l.Comm.SendCtx(to, tag, payload, tc)
	}
	l.held.Add(1)
	time.AfterFunc(100*time.Millisecond, func() {
		defer l.held.Done()
		_ = l.Comm.SendCtx(to, tag, payload, tc)
	})
	return nil
}

// TestCorruptGatherIsThePolicysCall: a corrupt gather payload degrades or
// aborts a run exactly as a corrupt step message does — fatal under
// fail-fast, the sender's blocks counted missing under compose-partial, the
// attempt abandoned and re-executed to the exact image under recover, also
// when the root's notice arrives after its agreement vote — on the gather
// root of both executors.
func TestCorruptGatherIsThePolicysCall(t *testing.T) {
	const p, corrupter = 4, 2
	sched, err := schedule.TwoNRT(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	layers := makeLayers(rand.New(rand.NewSource(61)), p, 24, 16, true)
	want := compose.SerialComposite(layers)
	for _, pipelined := range []bool{false, true} {
		for _, row := range []struct {
			mode       Policy
			lateNotice bool
		}{{FailFast, false}, {ComposePartial, false}, {Recover, false}, {Recover, true}} {
			mode := row.mode
			name := fmt.Sprintf("pipelined=%v/%v", pipelined, mode)
			if row.lateNotice {
				name += "/late_notice"
			}
			t.Run(name, func(t *testing.T) {
				opts := Options{Codec: codec.RLE{}, OnMissing: mode, RecvTimeout: 2 * time.Second}
				opts.Pipeline.Enabled = pipelined
				var img *raster.Image
				var rep *Report
				var rootErr error
				late := &lateNotices{}
				inproc.Run(p, func(c comm.Comm) error {
					if c.Rank() == corrupter {
						c = &gatherCorrupter{Comm: c, tiles: sched.Tiles}
					}
					if c.Rank() == 0 && row.lateNotice {
						late.Comm = c
						c = late
					}
					i, r, err := Run(c, sched, layers[c.Rank()], opts)
					if c.Rank() == 0 {
						img, rep, rootErr = i, r, err
					}
					return nil
				})
				late.held.Wait()
				switch mode {
				case FailFast:
					if !errors.Is(rootErr, codec.ErrCorrupt) {
						t.Fatalf("root error = %v, want one wrapping codec.ErrCorrupt", rootErr)
					}
				case ComposePartial:
					if rootErr != nil || !rep.Degraded || rep.MissingGathers < 1 || rep.MissingTransfers != 0 {
						t.Fatalf("root: err %v, report %+v; want a degraded frame with the corrupter's blocks missing", rootErr, rep)
					}
				case Recover:
					if rootErr != nil || rep.Degraded || rep.RecoveryEpochs != 1 || !raster.Equal(img, want) {
						t.Fatalf("root: err %v, report %+v; want the exact image after one re-execution", rootErr, rep)
					}
				}
			})
		}
	}
}

// FuzzGatherPayloadDecode drives arbitrary bytes through the gather root's
// parser against a four-tile frame: nothing may panic or spin, every
// rejection wraps codec.ErrCorrupt, an accepted payload covers what its
// blocks say, and the final blocks a store really holds come back as the
// image they were cut from.
func FuzzGatherPayloadDecode(f *testing.F) {
	for _, payload := range badGatherPayloads() {
		f.Add(payload)
	}
	f.Add([]byte{})
	img := raster.RandomImage(rand.New(rand.NewSource(9)), 4, 4, 0.3)
	sched, err := schedule.TwoNRT(2, 4)
	if err != nil {
		f.Fatal(err)
	}
	st := fragstore.New(0, sched, img)
	st.HalveAll()
	scr := newRunScratch()
	real := append([]byte(nil), encodeFinalBlocks(scr, st)...)
	tiles := append([]raster.Span(nil), st.Tiles()...)
	st.Release()
	scr.release()
	f.Add(real)
	f.Fuzz(func(t *testing.T, payload []byte) {
		out := raster.New(4, 4)
		n, err := insertFinalBlocks(out, tiles, payload, 1)
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		// Every covered pixel's bytes came from the payload, behind headers of
		// at least three bytes a block.
		if n < 0 || n*raster.BytesPerPixel > len(payload) {
			t.Fatalf("%d-byte payload covers %d pixels", len(payload), n)
		}
		if bytes.Equal(payload, real) && !raster.Equal(out, img) {
			t.Fatal("a store's final blocks do not reassemble its image")
		}
	})
}
