package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestReaderReadsWhatWasWritten(t *testing.T) {
	msg := binary.AppendUvarint(nil, 300)
	msg = binary.BigEndian.AppendUint64(msg, 0xDEADBEEFCAFE)
	msg = binary.AppendUvarint(msg, 3)
	msg = append(msg, "abc"...)
	msg = append(msg, 9, 8)

	r := NewReader(msg)
	if v := r.Int(300); v != 300 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.Uint64(); v != 0xDEADBEEFCAFE {
		t.Fatalf("Uint64 = %x", v)
	}
	blk := r.Block()
	if string(blk) != "abc" || cap(blk) != 3 {
		t.Fatalf("Block = %q cap %d", blk, cap(blk))
	}
	if r.Len() != 2 || r.Err() != nil {
		t.Fatalf("Len = %d, Err = %v", r.Len(), r.Err())
	}
	if err := r.Done(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Done with two bytes left: %v", err)
	}
	if b := r.Bytes(2); b != nil || r.Len() != 0 {
		t.Fatal("a failed reader still hands out bytes")
	}
}

func TestReaderRejections(t *testing.T) {
	for _, row := range []struct {
		name string
		msg  []byte
		read func(r *Reader)
		want error
	}{
		{"empty varint", nil, func(r *Reader) { r.Uvarint(9) }, ErrTruncated},
		{"cut varint", []byte{0x80}, func(r *Reader) { r.Uvarint(1 << 20) }, ErrTruncated},
		{"over max", []byte{10}, func(r *Reader) { r.Uvarint(9) }, ErrRange},
		{"overflows 64 bits", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint(^uint64(0)) }, ErrRange},
		{"overlong zero", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint(9) }, ErrOverlong},
		{"overlong", []byte{0xe9, 0x00}, func(r *Reader) { r.Uvarint(1 << 20) }, ErrOverlong},
		{"negative max", []byte{0}, func(r *Reader) { r.Int(-1) }, ErrRange},
		{"short uint64", make([]byte, 7), func(r *Reader) { r.Uint64() }, ErrTruncated},
		{"short bytes", make([]byte, 3), func(r *Reader) { r.Bytes(4) }, ErrTruncated},
		{"negative bytes", make([]byte, 3), func(r *Reader) { r.Bytes(-1) }, ErrTruncated},
		{"block longer than the rest", []byte{5, 1, 2}, func(r *Reader) { r.Block() }, ErrRange},
		{"block cut by its own prefix", []byte{2, 1}, func(r *Reader) { r.Block() }, ErrTruncated},
		{"first failure sticks", []byte{10, 1}, func(r *Reader) { r.Uvarint(9); r.Bytes(5) }, ErrRange},
	} {
		r := NewReader(row.msg)
		row.read(&r)
		if err := r.Done(); !errors.Is(err, row.want) {
			t.Errorf("%s: %v, want %v", row.name, err, row.want)
		}
		if r.Len() != 0 {
			t.Errorf("%s: a failed reader reports %d bytes left", row.name, r.Len())
		}
	}
}

// FuzzReader runs an arbitrary script of reads over arbitrary bytes. No read
// may panic or hand out bytes from outside the message; the bytes consumed
// are always a prefix of it; every accepted varint re-encodes to exactly the
// bytes it consumed; and Done is nil if and only if every read succeeded and
// the message was consumed to its last byte.
func FuzzReader(f *testing.F) {
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []byte{0, 0})
	f.Add([]byte{0x80, 0x00, 7}, []byte{1, 2})
	f.Add([]byte{3, 'a', 'b', 'c', 0, 0, 0, 0, 0, 0, 0, 9, 2, 1, 1}, []byte{4, 2, 3, 0, 5})
	f.Fuzz(func(t *testing.T, msg, script []byte) {
		r := NewReader(msg)
		consumed := 0
		advance := func(n int) {
			if r.Err() != nil {
				if r.Len() != 0 {
					t.Fatalf("failed reader reports %d bytes left", r.Len())
				}
				return
			}
			consumed += n
			if consumed+r.Len() != len(msg) {
				t.Fatalf("consumed %d + left %d != message %d", consumed, r.Len(), len(msg))
			}
		}
		for i, op := range script {
			switch op % 6 {
			case 0, 1:
				max := ^uint64(0)
				if op%6 == 1 {
					max = uint64(i) * 37
				}
				before := r.Len()
				v := r.Uvarint(max)
				if r.Err() == nil {
					n := before - r.Len()
					if v > max || !bytes.Equal(binary.AppendUvarint(nil, v), msg[consumed:consumed+n]) {
						t.Fatalf("accepted varint %d (max %d) from % x", v, max, msg[consumed:consumed+n])
					}
					advance(n)
				}
			case 2:
				if v := r.Uint64(); r.Err() == nil {
					if v != binary.BigEndian.Uint64(msg[consumed:]) {
						t.Fatalf("Uint64 = %x", v)
					}
					advance(8)
				}
			case 3:
				n := int(int8(op)) // negative lengths too
				if b := r.Bytes(n); r.Err() == nil {
					if len(b) != n || cap(b) != n || !bytes.Equal(b, msg[consumed:consumed+n]) {
						t.Fatalf("Bytes(%d) = % x", n, b)
					}
					advance(n)
				}
			case 4:
				before := r.Len()
				if b := r.Block(); r.Err() == nil {
					n := before - r.Len()
					if !bytes.Equal(b, msg[consumed+n-len(b):consumed+n]) || cap(b) != len(b) {
						t.Fatalf("Block = % x", b)
					}
					advance(n)
				}
			case 5:
				if v := r.Int(i - 1); r.Err() == nil && (v < 0 || v > i-1) {
					t.Fatalf("Int(%d) = %d", i-1, v)
				} else if r.Err() == nil {
					advance(len(binary.AppendUvarint(nil, uint64(v))))
				}
			}
			advance(0)
		}
		failed, left := r.Err() != nil, r.Len()
		if err := r.Done(); (err == nil) != (!failed && left == 0) {
			t.Fatalf("Done = %v after failed=%v with %d bytes left", err, failed, left)
		}
	})
}
