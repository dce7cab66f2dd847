// Package wire reads the variable-length control-plane messages of the
// repository — rank sets, join frames, block and gather envelopes — through
// one bounds-checking cursor, so that no decoder does its own slice
// arithmetic on bytes a peer sent.
//
// A Reader is a slice and a sticky error: once a read fails, every later
// read returns a zero value and Err keeps the first failure, so a decoder
// reads its fields in order and checks once (Done). Every read is bounded —
// by the caller's maximum for a number, by the bytes left for a length — and
// a varint is accepted in its canonical spelling only, so an accepted message
// re-encodes to the bytes it was read from. Fixed-layout headers (the tcpnet
// frame, the trace context, the volume file) are offsets, not cursors, and
// are not this package's business.
package wire

import (
	"encoding/binary"
	"errors"
)

// What a read can fail with. Decoders wrap these in their own typed errors.
var (
	ErrTruncated = errors.New("wire: message truncated")
	ErrRange     = errors.New("wire: field out of range")
	ErrOverlong  = errors.New("wire: non-canonical varint")
	ErrTrailing  = errors.New("wire: trailing bytes")
)

// Reader consumes a message front to back. Hold it by value: it is two words
// and a decoder's cursor never needs to leave its stack.
type Reader struct {
	buf []byte
	err error
}

// NewReader starts a cursor at the front of msg. Slices the Reader hands out
// alias msg.
func NewReader(msg []byte) Reader { return Reader{buf: msg} }

// fail records the first failure and drops what is left of the message.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err, r.buf = err, nil
	}
}

// Uvarint reads one canonical uvarint no larger than max.
func (r *Reader) Uvarint(max uint64) uint64 {
	v, n := binary.Uvarint(r.buf)
	switch {
	case r.err != nil:
	case n == 0:
		r.fail(ErrTruncated)
	case n < 0 || v > max:
		r.fail(ErrRange)
	case n > 1 && r.buf[n-1] == 0:
		// A multi-byte varint ending in a zero byte spells a shorter one.
		r.fail(ErrOverlong)
	default:
		r.buf = r.buf[n:]
		return v
	}
	return 0
}

// Int is Uvarint for a value used as an int; a negative max admits nothing.
func (r *Reader) Int(max int) int {
	if max < 0 {
		r.fail(ErrRange)
	}
	return int(r.Uvarint(uint64(max)))
}

// Uint64 reads eight big-endian bytes.
func (r *Reader) Uint64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Bytes reads the next n bytes, aliasing the message with no spare capacity.
func (r *Reader) Bytes(n int) []byte {
	if r.err == nil && (n < 0 || n > len(r.buf)) {
		r.fail(ErrTruncated)
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Block reads a uvarint length and that many bytes.
func (r *Reader) Block() []byte { return r.Bytes(r.Int(len(r.buf))) }

// Len is the number of bytes not yet read — also the most elements a counted
// list can still hold, since every element takes at least one.
func (r *Reader) Len() int { return len(r.buf) }

// Err is the first failure, nil while every read has succeeded.
func (r *Reader) Err() error { return r.err }

// Done ends the message: the first failure, or ErrTrailing when bytes are
// left over.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.fail(ErrTrailing)
	}
	return r.err
}
