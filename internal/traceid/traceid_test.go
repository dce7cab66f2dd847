package traceid

import (
	"bytes"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	cases := []Context{
		{Origin: 0, Seq: 1, Step: 0, Tile: 0, Epoch: 0},
		{Origin: 3, Seq: 42, Step: 5, Tile: 7, Epoch: 2},
		{Origin: 65535, Seq: 0xFFFFFFFF, Step: -1, Tile: -1, Epoch: 65535},
		{Origin: 12, Seq: 7, Step: 32767, Tile: -32768, Epoch: 1},
	}
	for _, c := range cases {
		var b [WireSize]byte
		c.Encode(b[:])
		got, err := Decode(b[:])
		if err != nil {
			t.Fatalf("Decode(%+v): %v", c, err)
		}
		if got != c {
			t.Errorf("round trip: got %+v, want %+v", got, c)
		}
	}
}

func TestZeroContext(t *testing.T) {
	var zero Context
	if zero.Valid() {
		t.Fatal("zero Context must be invalid")
	}
	var b [WireSize]byte
	zero.Encode(b[:])
	got, err := Decode(b[:])
	if err != nil {
		t.Fatalf("Decode(zero): %v", err)
	}
	if got.Valid() || got != (Context{}) {
		t.Errorf("zero round trip: got %+v", got)
	}
}

// TestEncodeClearsStale proves Encode fully overwrites a dirty buffer — the
// tcpnet header scratch is reused across frames.
func TestEncodeClearsStale(t *testing.T) {
	dirty := bytes.Repeat([]byte{0xAA}, WireSize)
	(Context{}).Encode(dirty)
	got, err := Decode(dirty)
	if err != nil || got.Valid() {
		t.Fatalf("stale buffer leaked: ctx=%+v err=%v", got, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, WireSize-1)); err == nil {
		t.Error("short input must error")
	}
	bad := make([]byte, WireSize)
	bad[0] = 99
	if _, err := Decode(bad); err == nil {
		t.Error("unknown version must error")
	}
	flagNoSeq := make([]byte, WireSize)
	flagNoSeq[0] = wireVersion
	flagNoSeq[1] = flagPresent
	if _, err := Decode(flagNoSeq); err == nil {
		t.Error("present flag with zero seq must error")
	}
}

func TestIDUniquePerOriginSeq(t *testing.T) {
	seen := map[uint64]bool{}
	for origin := 0; origin < 4; origin++ {
		for seq := uint32(1); seq <= 4; seq++ {
			id := (Context{Origin: origin, Seq: seq}).ID()
			if seen[id] {
				t.Fatalf("duplicate ID %#x for origin=%d seq=%d", id, origin, seq)
			}
			seen[id] = true
		}
	}
}

// FuzzContextDecode is the trace-context frame decoder fuzz target: any
// input either errors or decodes to a context that re-encodes and
// re-decodes to itself.
func FuzzContextDecode(f *testing.F) {
	f.Add(make([]byte, WireSize))
	seed := Context{Origin: 2, Seq: 77, Step: 3, Tile: 1, Epoch: 1}
	seedBytes := make([]byte, WireSize)
	seed.Encode(seedBytes)
	f.Add(seedBytes)
	f.Add([]byte{wireVersion, flagPresent, 1, 0, 0, 0, 5, 0, 0, 0, 255, 255, 255, 255, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			return
		}
		var b [WireSize]byte
		c.Encode(b[:])
		again, err := Decode(b[:])
		if err != nil {
			t.Fatalf("re-decode of encoded context failed: %v", err)
		}
		if again != c {
			t.Fatalf("re-encode changed context: %+v -> %+v", c, again)
		}
	})
}
