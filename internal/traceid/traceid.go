// Package traceid defines the compact causal trace context piggybacked on
// every message the fabrics carry: enough to link a send span on one rank
// to the recv/decode/merge spans its payload triggers on another, without
// growing frames beyond a fixed 16 bytes.
//
// A context is minted by the sending fabric — the origin rank plus a
// per-origin sequence number make the flow id globally unique for a run —
// and the compositor enriches it with the (step, tile, epoch) coordinates
// of the transfer so a stitched timeline can attribute every wire crossing
// to its place in the composition schedule. The zero Context is "no
// context": it encodes to all-clear flag bytes and decodes back to zero,
// so untraced frames cost nothing but the reserved bytes.
//
// Wire layout (fixed WireSize bytes, little-endian):
//
//	[0]     version (wireVersion)
//	[1]     flags (bit 0: context present)
//	[2:4]   origin rank (uint16)
//	[4:6]   recovery epoch (uint16)
//	[6:10]  per-origin sequence (uint32, 1-based; 0 never encodes as present)
//	[10:12] schedule step (int16, -1 = none)
//	[12:14] tile (int16, -1 = none)
//	[14:16] reserved (zero)
package traceid

import (
	"encoding/binary"
	"fmt"
)

// WireSize is the fixed encoded size of a Context.
const WireSize = 16

// wireVersion is the encoding version byte; Decode rejects others.
const wireVersion = 1

// flagPresent marks an encoded context as carrying a real trace id.
const flagPresent = 1

// Context is the causal coordinate of one message. Origin and Seq identify
// the flow (assigned by the sending fabric); Step, Tile and Epoch locate it
// in the composition schedule (-1 where not applicable).
type Context struct {
	Origin int    // rank that minted the context
	Seq    uint32 // per-origin sequence, 1-based; 0 means "no context"
	Step   int    // 0-based composition step, or -1
	Tile   int    // tile index, or -1
	Epoch  int    // recovery epoch
}

// Valid reports whether the context carries a real trace id.
func (c Context) Valid() bool { return c.Seq != 0 }

// ID is the globally unique flow identifier of the context within a run:
// the origin rank in the high bits, the per-origin sequence in the low.
func (c Context) ID() uint64 {
	return uint64(uint16(c.Origin))<<32 | uint64(c.Seq)
}

// Encode writes the context into b, which must hold at least WireSize
// bytes. The zero Context encodes with the present flag clear.
func (c Context) Encode(b []byte) {
	_ = b[WireSize-1]
	b[0] = wireVersion
	if !c.Valid() {
		for i := 1; i < WireSize; i++ {
			b[i] = 0
		}
		return
	}
	b[1] = flagPresent
	binary.LittleEndian.PutUint16(b[2:4], uint16(c.Origin))
	binary.LittleEndian.PutUint16(b[4:6], uint16(c.Epoch))
	binary.LittleEndian.PutUint32(b[6:10], c.Seq)
	binary.LittleEndian.PutUint16(b[10:12], uint16(int16(c.Step)))
	binary.LittleEndian.PutUint16(b[12:14], uint16(int16(c.Tile)))
	b[14], b[15] = 0, 0
}

// Decode parses a context from the first WireSize bytes of b. A clear
// present flag yields the zero Context; unknown versions, short input and
// a present flag without a sequence are errors.
func Decode(b []byte) (Context, error) {
	if len(b) < WireSize {
		return Context{}, fmt.Errorf("traceid: short context: %d bytes", len(b))
	}
	if b[0] != wireVersion {
		return Context{}, fmt.Errorf("traceid: unknown context version %d", b[0])
	}
	if b[1]&flagPresent == 0 {
		return Context{}, nil
	}
	c := Context{
		Origin: int(binary.LittleEndian.Uint16(b[2:4])),
		Epoch:  int(binary.LittleEndian.Uint16(b[4:6])),
		Seq:    binary.LittleEndian.Uint32(b[6:10]),
		Step:   int(int16(binary.LittleEndian.Uint16(b[10:12]))),
		Tile:   int(int16(binary.LittleEndian.Uint16(b[12:14]))),
	}
	if !c.Valid() {
		return Context{}, fmt.Errorf("traceid: present flag set with zero sequence")
	}
	return c, nil
}
