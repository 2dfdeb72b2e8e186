// Binary codecs for the two artifacts shards exchange on disk and over
// the wire, both reusing the WAL framing idiom (internal/wal): a fixed
// magic, a little-endian length, and a CRC-32C (Castagnoli) checksum over
// the payload, so torn or corrupted bytes are detected before anything is
// interpreted.
//
// Shard-map file ("KGSM"):
//
//	magic [4]byte | len u32 | crc u32 | payload
//	payload = version u16 | shards u32 | seed u64
//
// Snapshot export ("KGSS", the GET /v1/snapshot body):
//
//	magic [4]byte | len u32 | crc u32 | payload
//	payload = version u16 | epoch u64 | nEdges uvarint |
//	          (from i32, to i32, weight f64bits)...
//
// Weights travel as IEEE-754 bit patterns, so a replica that imports a
// snapshot serves bit-identical scores to its writer.
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"kgvote/internal/core"
	"kgvote/internal/graph"
)

const (
	mapMagic  = "KGSM"
	snapMagic = "KGSS"

	codecVersion = 1

	// maxFramePayload bounds the declared payload length so a corrupt
	// header cannot demand an absurd allocation. 64 MiB is four million
	// edges per snapshot, far past any graph this system serves.
	maxFramePayload = 64 << 20
)

// ErrBadFrame wraps every framing or payload decoding failure.
var ErrBadFrame = errors.New("shard: malformed frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame prepends magic|len|crc to a payload.
func frame(magic string, payload []byte) []byte {
	b := make([]byte, 0, len(magic)+8+len(payload))
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// unframe verifies magic, length, and checksum, returning the payload.
func unframe(magic string, b []byte) ([]byte, error) {
	if len(b) < len(magic)+8 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a header", ErrBadFrame, len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrBadFrame, b[:len(magic)], magic)
	}
	b = b[len(magic):]
	n := binary.LittleEndian.Uint32(b[0:4])
	crcWant := binary.LittleEndian.Uint32(b[4:8])
	if n > maxFramePayload {
		return nil, fmt.Errorf("%w: declared payload %d exceeds cap", ErrBadFrame, n)
	}
	payload := b[8:]
	if uint32(len(payload)) != n {
		return nil, fmt.Errorf("%w: declared payload %d bytes, have %d", ErrBadFrame, n, len(payload))
	}
	if crc := crc32.Checksum(payload, castagnoli); crc != crcWant {
		return nil, fmt.Errorf("%w: checksum mismatch (want %08x, got %08x)", ErrBadFrame, crcWant, crc)
	}
	return payload, nil
}

// Encode serializes the map into its framed file bytes.
func (m *Map) Encode() ([]byte, error) {
	if m.Shards < 1 || m.Shards > math.MaxUint32 {
		return nil, fmt.Errorf("shard: cannot encode map with %d shards", m.Shards)
	}
	payload := make([]byte, 0, 14)
	payload = binary.LittleEndian.AppendUint16(payload, codecVersion)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(m.Shards))
	payload = binary.LittleEndian.AppendUint64(payload, m.Seed)
	return frame(mapMagic, payload), nil
}

// Checksum returns the CRC-32C of the map's payload — a compact
// fingerprint processes can compare in /v1/stats to prove they loaded the
// same map.
func (m *Map) Checksum() uint32 {
	b, err := m.Encode()
	if err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b[len(mapMagic)+4:])
}

// DecodeMap parses framed map bytes.
func DecodeMap(b []byte) (*Map, error) {
	payload, err := unframe(mapMagic, b)
	if err != nil {
		return nil, err
	}
	if len(payload) != 14 {
		return nil, fmt.Errorf("%w: map payload is %d bytes, want 14", ErrBadFrame, len(payload))
	}
	if v := binary.LittleEndian.Uint16(payload[0:2]); v != codecVersion {
		return nil, fmt.Errorf("%w: unsupported map version %d", ErrBadFrame, v)
	}
	shards := binary.LittleEndian.Uint32(payload[2:6])
	if shards < 1 {
		return nil, fmt.Errorf("%w: map declares 0 shards", ErrBadFrame)
	}
	return &Map{Shards: int(shards), Seed: binary.LittleEndian.Uint64(payload[6:14])}, nil
}

// EncodeSnapshot serializes an epoch-stamped absolute weight set.
func EncodeSnapshot(epoch uint64, ws []core.WeightChange) []byte {
	payload := make([]byte, 0, 2+8+binary.MaxVarintLen64+16*len(ws))
	payload = binary.LittleEndian.AppendUint16(payload, codecVersion)
	payload = binary.LittleEndian.AppendUint64(payload, epoch)
	payload = binary.AppendUvarint(payload, uint64(len(ws)))
	for _, wc := range ws {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(int32(wc.From)))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(int32(wc.To)))
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(wc.Weight))
	}
	return frame(snapMagic, payload)
}

// DecodeSnapshot parses an EncodeSnapshot frame.
func DecodeSnapshot(b []byte) (epoch uint64, ws []core.WeightChange, err error) {
	payload, err := unframe(snapMagic, b)
	if err != nil {
		return 0, nil, err
	}
	if len(payload) < 10 {
		return 0, nil, fmt.Errorf("%w: snapshot payload is %d bytes", ErrBadFrame, len(payload))
	}
	if v := binary.LittleEndian.Uint16(payload[0:2]); v != codecVersion {
		return 0, nil, fmt.Errorf("%w: unsupported snapshot version %d", ErrBadFrame, v)
	}
	epoch = binary.LittleEndian.Uint64(payload[2:10])
	rest := payload[10:]
	n, consumed := binary.Uvarint(rest)
	if consumed <= 0 || n > uint64(len(rest)/16)+1 {
		return 0, nil, fmt.Errorf("%w: bad edge count", ErrBadFrame)
	}
	rest = rest[consumed:]
	if uint64(len(rest)) != n*16 {
		return 0, nil, fmt.Errorf("%w: %d edges declared, %d payload bytes", ErrBadFrame, n, len(rest))
	}
	ws = make([]core.WeightChange, n)
	for i := range ws {
		ws[i].From = graph.NodeID(int32(binary.LittleEndian.Uint32(rest[0:4])))
		ws[i].To = graph.NodeID(int32(binary.LittleEndian.Uint32(rest[4:8])))
		ws[i].Weight = math.Float64frombits(binary.LittleEndian.Uint64(rest[8:16]))
		rest = rest[16:]
	}
	return epoch, ws, nil
}
