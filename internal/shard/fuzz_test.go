package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"kgvote/internal/core"
)

// addTruncations seeds every interesting cut of a valid frame: inside the
// magic, inside the header, one byte short, and one trailing byte too many.
func addTruncations(f *testing.F, b []byte) {
	for _, n := range []int{0, 2, 7, len(b) - 1} {
		f.Add(b[:n])
	}
	f.Add(append(append([]byte(nil), b...), 0))
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the GET /v1/snapshot body
// decoder a replica or peer runs on whatever a socket hands it. It must
// fail only with ErrBadFrame, never allocate more than the input could
// describe, and anything it accepts must survive a re-encode unchanged.
func FuzzDecodeSnapshot(f *testing.F) {
	empty := EncodeSnapshot(0, nil)
	full := EncodeSnapshot(42, []core.WeightChange{
		{From: 0, To: 1, Weight: 0.25},
		{From: 7, To: 3, Weight: math.Inf(1)},
		{From: -1, To: math.MaxInt32, Weight: math.NaN()},
	})
	f.Add(empty)
	f.Add(full)
	addTruncations(f, full)
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(flipped)
	// Checksum-valid frames the payload checks must still reject or bound:
	// an edge count far beyond the bytes present, and a padded varint.
	hdr := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint16(nil, codecVersion), 9)
	f.Add(frame(snapMagic, binary.AppendUvarint(append([]byte(nil), hdr...), math.MaxUint64)))
	f.Add(frame(snapMagic, append(append([]byte(nil), hdr...), 0x80, 0x00)))
	f.Add([]byte(snapMagic + "\xff\xff\xff\x7f\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, ws, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("unexpected error kind: %v", err)
			}
			return
		}
		if 16*len(ws) > len(data) {
			t.Fatalf("%d edges decoded from %d bytes", len(ws), len(data))
		}
		epoch2, ws2, err := DecodeSnapshot(EncodeSnapshot(epoch, ws))
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		if epoch2 != epoch || len(ws2) != len(ws) {
			t.Fatalf("round trip: epoch %d→%d, edges %d→%d", epoch, epoch2, len(ws), len(ws2))
		}
		for i := range ws {
			a, b := ws[i], ws2[i]
			if a.From != b.From || a.To != b.To || math.Float64bits(a.Weight) != math.Float64bits(b.Weight) {
				t.Fatalf("round trip: edge %d %+v→%+v", i, a, b)
			}
		}
	})
}

// FuzzDecodeMap does the same for the shard-map file every process of a
// cluster loads at boot. The map payload has one encoding, so an accepted
// input must re-encode to the very same bytes.
func FuzzDecodeMap(f *testing.F) {
	for _, m := range []*Map{{Shards: 1}, {Shards: 4, Seed: 0xfeedface}, {Shards: math.MaxUint32, Seed: math.MaxUint64}} {
		b, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	valid, _ := (&Map{Shards: 2, Seed: 7}).Encode()
	addTruncations(f, valid)
	flipped := append([]byte(nil), valid...)
	flipped[len(mapMagic)+9] ^= 0x01
	f.Add(flipped)
	// Checksum-valid but wrong: zero shards, a future version, a short payload.
	f.Add(frame(mapMagic, make([]byte, 14)))
	f.Add(frame(mapMagic, append([]byte{9, 0}, valid[len(mapMagic)+10:]...)))
	f.Add(frame(mapMagic, valid[len(mapMagic)+8:len(valid)-1]))
	f.Add(EncodeSnapshot(1, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMap(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("unexpected error kind: %v", err)
			}
			return
		}
		if m.Shards < 1 {
			t.Fatalf("accepted a map with %d shards", m.Shards)
		}
		again, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted map does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoded map differs from accepted input:\n in  %x\n out %x", data, again)
		}
	})
}
