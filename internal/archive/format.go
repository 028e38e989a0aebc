package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/vision"
)

// On-disk layout. A segment file is a fixed-size header followed by
// append-only frame records:
//
//	header (32 bytes):
//	  uint32 magic | uint16 version | uint16 reserved |
//	  uint32 width | uint32 height | uint32 fps |
//	  uint64 startFrame | uint32 crc32(header[0:28])
//
//	record (24 + payload bytes):
//	  uint64 frameIndex | int64 codedBits | uint32 payloadLen |
//	  payload | uint32 crc32(recordHeader + payload)
//
// The payload is the full-fidelity frame: width*height*3 float32
// little-endian samples, exactly vision.Image.Pix. Storing the
// original pixels (not the codec's lossy reconstruction) is what makes
// a demand-fetch served from disk byte-identical to one served from
// the live source: both re-encode the same input. codedBits carries
// the codec-model archive accounting alongside, so reopened stores
// still know what the archive "cost" under the paper's bitrate model.
//
// All framing integers are big-endian, matching internal/transport;
// payload floats are little-endian and covered by the record CRC.
const (
	segMagic   = 0xFFA7C417
	segVersion = 1

	headerSize     = 32
	recHeaderSize  = 20 // frameIndex + codedBits + payloadLen
	recTrailerSize = 4  // crc32
)

// recordSize returns the full on-disk size of one frame record for a
// store with the given per-frame payload size.
func recordSize(payload int) int64 {
	return int64(recHeaderSize + payload + recTrailerSize)
}

// encodeHeader serializes a segment header.
func encodeHeader(width, height, fps, start int) []byte {
	h := make([]byte, headerSize)
	binary.BigEndian.PutUint32(h[0:4], segMagic)
	binary.BigEndian.PutUint16(h[4:6], segVersion)
	binary.BigEndian.PutUint32(h[8:12], uint32(width))
	binary.BigEndian.PutUint32(h[12:16], uint32(height))
	binary.BigEndian.PutUint32(h[16:20], uint32(fps))
	binary.BigEndian.PutUint64(h[20:28], uint64(start))
	binary.BigEndian.PutUint32(h[28:32], crc32.ChecksumIEEE(h[0:28]))
	return h
}

// decodeHeader validates a segment header and returns its fields.
func decodeHeader(h []byte) (width, height, fps, start int, err error) {
	if len(h) < headerSize {
		return 0, 0, 0, 0, fmt.Errorf("archive: short segment header (%d bytes)", len(h))
	}
	if binary.BigEndian.Uint32(h[0:4]) != segMagic {
		return 0, 0, 0, 0, fmt.Errorf("archive: bad segment magic")
	}
	if v := binary.BigEndian.Uint16(h[4:6]); v != segVersion {
		return 0, 0, 0, 0, fmt.Errorf("archive: unsupported segment version %d", v)
	}
	if binary.BigEndian.Uint32(h[28:32]) != crc32.ChecksumIEEE(h[0:28]) {
		return 0, 0, 0, 0, fmt.Errorf("archive: segment header checksum mismatch")
	}
	width = int(binary.BigEndian.Uint32(h[8:12]))
	height = int(binary.BigEndian.Uint32(h[12:16]))
	fps = int(binary.BigEndian.Uint32(h[16:20]))
	start = int(binary.BigEndian.Uint64(h[20:28]))
	return width, height, fps, start, nil
}

// appendRecord appends one serialized frame record to dst and returns
// the extended slice. The writer hands its own buffer back each frame
// (dst[:0]), so a store's records reuse one allocation.
func appendRecord(dst []byte, index int, codedBits int64, img *vision.Image) []byte {
	payload := len(img.Pix) * 4
	n := recHeaderSize + payload + recTrailerSize
	dst = slices.Grow(dst, n)
	buf := dst[len(dst) : len(dst)+n]
	binary.BigEndian.PutUint64(buf[0:8], uint64(index))
	binary.BigEndian.PutUint64(buf[8:16], uint64(codedBits))
	binary.BigEndian.PutUint32(buf[16:20], uint32(payload))
	off := recHeaderSize
	for _, v := range img.Pix {
		binary.LittleEndian.PutUint32(buf[off:off+4], math.Float32bits(v))
		off += 4
	}
	binary.BigEndian.PutUint32(buf[off:off+4], crc32.ChecksumIEEE(buf[:off]))
	return dst[:len(dst)+n]
}

// decodeRecord validates one full frame record and returns its index,
// coded-bits accounting, and the reconstructed image.
func decodeRecord(buf []byte, width, height int) (index int, codedBits int64, img *vision.Image, err error) {
	wantPayload := width * height * 3 * 4
	if len(buf) != recHeaderSize+wantPayload+recTrailerSize {
		return 0, 0, nil, fmt.Errorf("archive: record of %d bytes, want %d", len(buf), recHeaderSize+wantPayload+recTrailerSize)
	}
	bodyEnd := recHeaderSize + wantPayload
	if binary.BigEndian.Uint32(buf[bodyEnd:bodyEnd+4]) != crc32.ChecksumIEEE(buf[:bodyEnd]) {
		return 0, 0, nil, fmt.Errorf("archive: record checksum mismatch")
	}
	if got := int(binary.BigEndian.Uint32(buf[16:20])); got != wantPayload {
		return 0, 0, nil, fmt.Errorf("archive: record payload of %d bytes, want %d", got, wantPayload)
	}
	index = int(binary.BigEndian.Uint64(buf[0:8]))
	codedBits = int64(binary.BigEndian.Uint64(buf[8:16]))
	img = vision.NewImage(width, height)
	off := recHeaderSize
	for i := range img.Pix {
		img.Pix[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off : off+4]))
		off += 4
	}
	return index, codedBits, img, nil
}
