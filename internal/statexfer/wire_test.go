package statexfer

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

// TestWireGolden pins the state-transfer formats to bytes an earlier build's
// encoders wrote (commit 7885e44) for the same snapshot: today's encoders
// write them, today's decoders read them back, and a message one byte longer
// or shorter is rejected with the format's typed error.
func TestWireGolden(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	secs := []Section{{Name: "subimage", Data: []byte{1, 2, 3, 4, 5, 6, 7}}, {Name: "ward:3", Data: []byte{}}, {Name: "", Data: []byte{9}}}
	snap, err := Build(2, 3, 5, secs, 8)
	if err != nil {
		t.Fatal(err)
	}

	blob := unhex("0308737562696d616765070102030405060706776172643a3300000109")
	if got := EncodeSections(secs); !bytes.Equal(got, blob) {
		t.Errorf("sections encode to %x, the format is %x", got, blob)
	}
	if got, err := DecodeSections(blob); err != nil || !reflect.DeepEqual(got, secs) {
		t.Errorf("golden sections decode to %+v, %v", got, err)
	}

	manifest := unhex("020305081d68d4099e46bda8399f5d8df5f574ccaa94b2bc6a3bc0a01efe7b4bcbd648a12e")
	if got := snap.Manifest.Encode(); !bytes.Equal(got, manifest) {
		t.Errorf("manifest encodes to %x, the format is %x", got, manifest)
	}
	if got, err := DecodeManifest(manifest); err != nil || !got.Equal(snap.Manifest) {
		t.Errorf("golden manifest decodes to %+v, %v", got, err)
	}

	chunks := []string{
		"00080308737562696d61028a660b6cdcd56a5d96b32254ce213b2d7d5f3ca02de8a68a89f04adcf1e2b7cc48c1eb602da5689900032b61fbb0ee520565e745ae64884fc5f90dc7581fa474",
		"010867650701020304050291d59a1db97d795212699c76299125c5ffc0880f03512a6a1ac0e0a2ddb1b9fd48c1eb602da5689900032b61fbb0ee520565e745ae64884fc5f90dc7581fa474",
		"0208060706776172643a02be63d9a4008e021ef3a4e07b32157bc9734ef1c799dfb45be82d5c00f3135752fb30ea5d4e839f3ab895105146d1c864941d40fb2f4596fbb60689068e0e9849",
		"03053300000109026b2b9bd2ce8f5fe911eeacc5ff9e17156c0ed17309d2719db53959f70e43a136fb30ea5d4e839f3ab895105146d1c864941d40fb2f4596fbb60689068e0e9849",
	}
	if snap.NumChunks() != len(chunks) {
		t.Fatalf("%d chunks, want %d", snap.NumChunks(), len(chunks))
	}
	asm, err := NewAssembler(snap.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		frame := unhex(c)
		if got := snap.ChunkFrame(i); !bytes.Equal(got, frame) {
			t.Errorf("chunk %d encodes to %x, the format is %x", i, got, frame)
		}
		if fresh, err := asm.AddFrame(frame); err != nil || !fresh {
			t.Errorf("golden chunk %d: fresh %v, %v", i, fresh, err)
		}
		for _, bad := range [][]byte{append(frame, 0), frame[:len(frame)-1]} {
			if _, _, _, err := DecodeChunkFrame(bad); !errors.Is(err, ErrFrame) {
				t.Errorf("chunk %d with %d bytes for %d: %v, want ErrFrame", i, len(bad), len(frame), err)
			}
		}
	}
	if got, err := asm.Bytes(); err != nil || !bytes.Equal(got, blob) {
		t.Errorf("golden chunks assemble to %x, %v", got, err)
	}

	for _, bad := range [][]byte{append(blob, 0), blob[:len(blob)-1]} {
		if _, err := DecodeSections(bad); !errors.Is(err, ErrFrame) {
			t.Errorf("sections with %d bytes for %d: %v, want ErrFrame", len(bad), len(blob), err)
		}
	}
	for _, bad := range [][]byte{append(manifest, 0), manifest[:len(manifest)-1]} {
		if _, err := DecodeManifest(bad); !errors.Is(err, ErrManifest) {
			t.Errorf("manifest with %d bytes for %d: %v, want ErrManifest", len(bad), len(manifest), err)
		}
	}
}
