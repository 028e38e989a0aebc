package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/core"
)

// TestReadHeaderRejects pins every way a handshake is refused: each
// version this build does not speak (zero, the retired one-way v1, and
// anything above MaxVersion) wraps ErrVersion; a wrong magic and a
// handshake cut short are errors of their own.
func TestReadHeaderRejects(t *testing.T) {
	for _, v := range []uint16{0, 1, MaxVersion + 1, 99} {
		var buf bytes.Buffer
		if err := WriteHeader(&buf, v); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadHeader(&buf); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d error = %v, want ErrVersion", v, err)
		}
	}
	if _, err := ReadHeader(bytes.NewReader([]byte{0, 1, 2, 3, 0, 2})); err == nil || errors.Is(err, ErrVersion) {
		t.Errorf("bad magic error = %v, want a non-version error", err)
	}
	if _, err := ReadHeader(bytes.NewReader([]byte{0xFF, 0x00})); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated handshake error = %v, want io.ErrUnexpectedEOF", err)
	}
	var ok bytes.Buffer
	if err := WriteHeader(&ok, Version2); err != nil {
		t.Fatal(err)
	}
	if v, err := ReadHeader(&ok); err != nil || v != Version2 {
		t.Errorf("version 2 handshake = %d, %v", v, err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := UploadRecord{MCName: "rt", EventID: 9, Start: 4, End: 8, Bits: 321, Final: true}
	if err := WriteRecord(&buf, KindUpload, want); err != nil {
		t.Fatal(err)
	}
	kind, body, err := ReadRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindUpload {
		t.Fatalf("kind = %d, want %d", kind, KindUpload)
	}
	var got UploadRecord
	if err := DecodeRecord(body, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip changed record: %+v vs %+v", got, want)
	}
	// A clean end of stream at a record boundary is io.EOF.
	if _, _, err := ReadRecord(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream error = %v, want io.EOF", err)
	}
}

func TestReadRecordTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, KindUpload, UploadRecord{MCName: "x"}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Cut mid-payload: io.ErrUnexpectedEOF, not a clean EOF.
	if _, _, err := ReadRecord(bytes.NewReader(whole[:len(whole)-2])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-payload truncation error = %v, want io.ErrUnexpectedEOF", err)
	}
	// Cut mid-header: also not a clean EOF.
	if _, _, err := ReadRecord(bytes.NewReader(whole[:3])); errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatal("mid-header truncation reported a clean EOF")
	}
}

// TestReadRecordDeadlineProgress pins the liveness semantics: the
// timeout bounds silence between arrivals, not total record transfer
// time. A record trickling in slowly must survive as long as each gap
// stays under the window; a silent peer must still time out.
func TestReadRecordDeadlineProgress(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, KindUpload, UploadRecord{MCName: "slow", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go func() {
		// Trickle the record in 4 parts with 30ms gaps: total transfer
		// ~90ms, well past the 60ms silence window below.
		step := len(whole)/4 + 1
		for lo := 0; lo < len(whole); lo += step {
			hi := lo + step
			if hi > len(whole) {
				hi = len(whole)
			}
			cConn.Write(whole[lo:hi])
			time.Sleep(30 * time.Millisecond)
		}
	}()
	kind, body, err := ReadRecordDeadline(sConn, 60*time.Millisecond)
	if err != nil {
		t.Fatalf("trickled record timed out despite steady progress: %v", err)
	}
	var rec UploadRecord
	if kind != KindUpload || DecodeRecord(body, &rec) != nil || rec.MCName != "slow" {
		t.Fatalf("trickled record mangled: kind %d, rec %+v", kind, rec)
	}

	// Silence still times out.
	if _, _, err := ReadRecordDeadline(sConn, 50*time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent peer error = %v, want os.ErrDeadlineExceeded", err)
	}
}

func TestUploadRecordConversion(t *testing.T) {
	u := core.Upload{MCName: "x", EventID: 7, Start: 1, End: 9, Bits: 55, Final: true}
	back := ToRecord(u).ToUpload()
	if back.MCName != u.MCName || back.EventID != u.EventID || back.Start != u.Start ||
		back.End != u.End || back.Bits != u.Bits || back.Final != u.Final {
		t.Fatalf("round trip changed upload: %+v vs %+v", back, u)
	}
}
