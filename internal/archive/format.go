package archive

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/vision"
	"repro/internal/walog"
)

// On-disk layout. A segment file is a run of walog records — each
// kind | length | crc32(payload) | payload, framed by walog.Frame and
// read back by walog.Scan, the scan the controller's log recovers with:
//
//	first record (kindSegment):
//	  uint32 width | uint32 height | uint32 fps | uint64 startFrame
//	every later record (kindFrame), one per frame:
//	  uint64 frameIndex | int64 codedBits | pixels
//
// pixels is the full-fidelity frame: width*height*3 float32
// little-endian samples, exactly vision.Image.Pix. Storing the
// original pixels (not the codec's lossy reconstruction) is what makes
// a demand-fetch served from disk byte-identical to one served from
// the live source: both re-encode the same input. codedBits carries
// the codec-model archive accounting alongside, so reopened stores
// still know what the archive "cost" under the paper's bitrate model.
// A frame record is bound by walog.MaxRecordBytes like any other, so
// Open refuses a frame over MaxFramePixels.
//
// The integers are big-endian, matching the record frame; the pixel
// floats are little-endian. Every frame record of a store has the same
// size, so frame i of a segment starts at headerSize + i*recordSize.
const (
	kindSegment = 1
	kindFrame   = 2

	segmentPayload = 20 // width + height + fps + startFrame
	framePrefix    = 16 // frameIndex + codedBits

	// headerSize is the segment record's on-disk size.
	headerSize = walog.RecordHeaderLen + segmentPayload
)

// MaxFramePixels is the largest frame, in pixels, a store accepts: one
// frame is one record, whose payload walog.MaxRecordBytes bounds.
const MaxFramePixels = (walog.MaxRecordBytes - framePrefix) / (3 * 4)

// recordSize returns the full on-disk size of one frame record for a
// store with the given per-frame pixel bytes.
func recordSize(pixBytes int) int64 {
	return int64(walog.RecordHeaderLen + framePrefix + pixBytes)
}

// encodeHeader serializes a segment's first record.
func encodeHeader(width, height, fps, start int) []byte {
	h := make([]byte, headerSize)
	p := h[walog.RecordHeaderLen:]
	binary.BigEndian.PutUint32(p[0:4], uint32(width))
	binary.BigEndian.PutUint32(p[4:8], uint32(height))
	binary.BigEndian.PutUint32(p[8:12], uint32(fps))
	binary.BigEndian.PutUint64(p[12:20], uint64(start))
	_ = walog.Frame(h, kindSegment, p) // 20 bytes: within any limit
	return h
}

// decodeHeader validates a segment's first record and returns its
// fields.
func decodeHeader(kind uint8, p []byte) (width, height, start int, err error) {
	if kind != kindSegment || len(p) != segmentPayload {
		return 0, 0, 0, fmt.Errorf("archive: first record of kind %d and %d bytes is no segment header", kind, len(p))
	}
	width = int(binary.BigEndian.Uint32(p[0:4]))
	height = int(binary.BigEndian.Uint32(p[4:8]))
	start = int(binary.BigEndian.Uint64(p[12:20]))
	return width, height, start, nil
}

// appendRecord appends one framed frame record to dst and returns the
// extended slice. The writer hands its own buffer back each frame
// (dst[:0]), so a store's records reuse one allocation. Open has
// refused frames whose record exceeds walog.MaxRecordBytes.
func appendRecord(dst []byte, index int, codedBits int64, img *vision.Image) []byte {
	n := int(recordSize(len(img.Pix) * 4))
	dst = slices.Grow(dst, n)
	buf := dst[len(dst) : len(dst)+n]
	p := buf[walog.RecordHeaderLen:]
	binary.BigEndian.PutUint64(p[0:8], uint64(index))
	binary.BigEndian.PutUint64(p[8:16], uint64(codedBits))
	off := framePrefix
	for _, v := range img.Pix {
		binary.LittleEndian.PutUint32(p[off:off+4], math.Float32bits(v))
		off += 4
	}
	_ = walog.Frame(buf, kindFrame, p) // within the limit, checked at Open
	return dst[:len(dst)+n]
}

// decodeFrame validates one frame record's kind and size for frames
// of pixBytes and returns its index and coded-bits accounting.
func decodeFrame(kind uint8, p []byte, pixBytes int) (index int, codedBits int64, err error) {
	if kind != kindFrame || len(p) != framePrefix+pixBytes {
		return 0, 0, fmt.Errorf("archive: record of kind %d and %d bytes, want a frame of %d", kind, len(p), framePrefix+pixBytes)
	}
	return int(binary.BigEndian.Uint64(p[0:8])), int64(binary.BigEndian.Uint64(p[8:16])), nil
}

// decodePixels fills img from a frame record decodeFrame accepted.
func decodePixels(p []byte, img *vision.Image) {
	off := framePrefix
	for i := range img.Pix {
		img.Pix[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[off : off+4]))
		off += 4
	}
}
