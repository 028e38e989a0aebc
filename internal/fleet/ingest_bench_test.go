package fleet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
)

// ingestWindow is how many uploads BenchmarkIngest's edge keeps in
// flight: bench's ctrl-ingest window.
const ingestWindow = 8

// BenchmarkIngest is what an upload costs the controller alone: one
// session over the simulated network keeps 8 pre-encoded uploads in
// flight against a durable controller, writing each as soon as an ack
// frees its slot, with WALSync off and on. It reports uploads/s, and
// allocations per upload (the edge side allocates nothing once warm).
// bench's ctrl-ingest spends much of its time in its own generator;
// this is the controller's share.
func BenchmarkIngest(b *testing.B) {
	for _, walSync := range []bool{false, true} {
		b.Run(fmt.Sprintf("walsync=%v", walSync), func(b *testing.B) {
			n := simnet.New(1)
			ln, err := n.Listen("dc")
			if err != nil {
				b.Fatal(err)
			}
			ctrl, _, err := OpenController(ControllerConfig{Timeout: 10 * time.Second, StateDir: b.TempDir(), WALSync: walSync})
			if err != nil {
				b.Fatal(err)
			}
			ctrl.Serve(ln)
			defer ctrl.Close()
			conn, err := n.Dial("bench", "dc")
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			if err := transport.WriteHeader(conn, transport.Version2); err != nil {
				b.Fatal(err)
			}
			if err := transport.WriteRecord(conn, transport.KindHello, Hello{Node: "bench", Streams: []StreamInfo{{Name: "cam0"}}}); err != nil {
				b.Fatal(err)
			}
			if _, err := transport.ReadHeader(conn); err != nil {
				b.Fatal(err)
			}
			if kind, _, err := transport.ReadRecord(conn); err != nil || kind != transport.KindWelcome {
				b.Fatalf("no welcome: kind %d, err %v", kind, err)
			}

			// Every upload framed up front, back to back: ends[i] is
			// where upload i's record ends.
			var stream []byte
			ends := make([]int, b.N)
			for i := range b.N {
				start := 12 * i
				rec := transport.UploadRecord{MCName: "cam0/mc-1", EventID: uint64(i / 3), Start: start, End: start + 12, Bits: 40_000, Final: i%3 == 2, Seq: uint64(i + 1)}
				frame, err := transport.EncodeRecord(transport.KindUpload, rec)
				if err != nil {
					b.Fatal(err)
				}
				stream = append(stream, frame...)
				ends[i] = len(stream)
			}
			rd := transport.NewReader(conn, 0)
			b.ReportAllocs()
			b.ResetTimer()
			sent, acked := 0, 0
			for acked < b.N {
				for ; sent < b.N && sent-acked < ingestWindow; sent++ {
					from := 0
					if sent > 0 {
						from = ends[sent-1]
					}
					if _, err := conn.Write(stream[from:ends[sent]]); err != nil {
						b.Fatal(err)
					}
				}
				kind, _, err := rd.Read()
				if err != nil {
					b.Fatal(err)
				}
				if kind == transport.KindUploadAck {
					acked++
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "uploads/s")
		})
	}
}
