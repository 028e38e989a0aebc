package layers

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/bench/synthedge"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/walog"
)

// Wire runs the microbenches of the packages an upload crosses after
// it leaves the pipeline: transport framing, the write-ahead log, and
// the in-process network (to show it is not the bottleneck).
func Wire(tmpDir string) (Metrics, error) {
	m := Metrics{}
	rec := transport.UploadRecord{MCName: "cam0/loc-crop", EventID: 41, Start: 1200, End: 1248, Bits: 187_344, Final: true, Seq: 977}

	// transport: frame one upload record, then read and decode it.
	var buf bytes.Buffer
	const records = 20_000
	var werr error
	m["transport.write_record_us"] = us(total(records, func(int) {
		buf.Reset()
		if err := transport.WriteRecord(&buf, transport.KindUpload, rec); err != nil {
			werr = err
		}
	})) / records
	if werr != nil {
		return nil, werr
	}
	m["transport.bytes_per_upload"] = float64(buf.Len())
	wire := append([]byte(nil), buf.Bytes()...)
	rd := bytes.NewReader(wire)
	var rerr error
	m["transport.read_record_us"] = us(total(records, func(int) {
		rd.Reset(wire)
		_, body, err := transport.ReadRecord(rd)
		if err == nil {
			var got transport.UploadRecord
			err = transport.DecodeRecord(body, &got)
		}
		if err != nil {
			rerr = err
		}
	})) / records
	if rerr != nil {
		return nil, rerr
	}

	if err := walogBench(m, tmpDir); err != nil {
		return nil, err
	}

	// simnet: one direction of a connection, 64 KB writes.
	network := simnet.New(1)
	ln, err := network.Listen("sink")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	conn, err := network.Dial("source", "sink")
	if err != nil {
		return nil, err
	}
	peer, err := ln.Accept()
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, peer)
		close(done)
	}()
	chunk := make([]byte, 64<<10)
	const chunks = 2000
	d := total(chunks, func(int) { conn.Write(chunk) })
	conn.Close()
	<-done
	peer.Close()
	m["simnet.pipe_mb_per_s"] = float64(chunks*len(chunk)) / (1 << 20) / d.Seconds()
	return m, nil
}

// walogBench times the log the way a controller shard uses it: 512 B
// appends without sync, a snapshot compaction, a reopen that replays
// records, and (informational, disk-dependent) one fsync.
func walogBench(m Metrics, tmpDir string) error {
	dir := filepath.Join(tmpDir, "walog-bench")
	defer os.RemoveAll(dir)
	l, err := walog.Open(dir)
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte{0xA5}, 512)
	const appends = 4000
	var aerr error
	lat := each(appends, func(int) {
		if err := l.Append(2, payload); err != nil {
			aerr = err
		}
	})
	if aerr != nil {
		return aerr
	}
	m["walog.append_us_p50"] = us(pct(lat, 0.50))
	m["walog.append_us_p99"] = us(pct(lat, 0.99))
	t0 := time.Now()
	if err := l.Sync(); err != nil {
		return err
	}
	m["walog.sync_us"] = us(time.Since(t0))
	if err := l.Close(); err != nil {
		return err
	}

	t0 = time.Now()
	l, err = walog.Open(dir)
	if err != nil {
		return err
	}
	opened := time.Since(t0)
	if got := len(l.Records()); got != appends {
		return fmt.Errorf("layers: reopened log replays %d records, %d were appended", got, appends)
	}
	m["walog.open_ms_per_krec"] = ms(opened) / (appends / 1000.0)

	snap := bytes.Repeat([]byte{0x5A}, 1<<20)
	var serr error
	snaps := each(5, func(int) {
		if err := l.WriteSnapshot(snap); err != nil {
			serr = err
		}
	})
	if serr != nil {
		return serr
	}
	m["walog.snapshot_ms_per_mb"] = ms(meanOf(snaps))
	return l.Close()
}

// Control runs the control-plane microbenches that need a live
// controller: handshake, heartbeat handling, a deploy round trip, the
// fleet rollup merge, and a durable controller's Close.
func Control(tmpDir string) (Metrics, error) {
	m := Metrics{}
	dir := filepath.Join(tmpDir, "control-bench")
	defer os.RemoveAll(dir)
	network := simnet.New(1)
	ln, err := network.Listen("dc")
	if err != nil {
		return nil, err
	}
	ctrl, _, err := fleet.OpenController(fleet.ControllerConfig{Timeout: 10 * time.Second, StateDir: dir})
	if err != nil {
		return nil, err
	}
	ctrl.Serve(ln)
	closed := false
	defer func() {
		if !closed {
			ctrl.Close()
		}
	}()

	const timeout = 5 * time.Second
	hello := func(node string) (*synthedge.Edge, time.Duration, error) {
		conn, err := network.Dial(node, "dc")
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		e, err := synthedge.Handshake(conn, fleet.Hello{Node: node, Streams: synthedge.Streams()}, timeout)
		return e, time.Since(t0), err
	}
	var hellos []time.Duration
	for i := 0; i < 20; i++ {
		e, d, err := hello(fmt.Sprintf("hello-%d", i))
		if err != nil {
			return nil, err
		}
		hellos = append(hellos, d)
		if err := e.Bye(); err != nil {
			return nil, err
		}
	}
	m["fleet.hello_ms"] = ms(pct(hellos, 0.50))

	e, _, err := hello("edge-bench")
	if err != nil {
		return nil, err
	}
	defer e.Close()
	seq := uint64(0)
	ackAfter := func(heartbeats int, hb *synthedge.Heartbeats) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < heartbeats; i++ {
			if err := e.SendHeartbeat(hb.Next()); err != nil {
				return 0, err
			}
		}
		seq++
		if err := e.SendUpload(transport.UploadRecord{MCName: "cam0/mc0", EventID: seq, Start: int(seq), End: int(seq) + 8, Bits: 1000, Seq: seq}); err != nil {
			return 0, err
		}
		_, err := e.ReadAck(timeout)
		return time.Since(t0), err
	}
	// The session is FIFO: an upload behind H heartbeats is acked
	// only after all of them were decoded and evaluated, so
	// (ack time - plain ack time) / H is one heartbeat's handling.
	hb := synthedge.NewHeartbeats(1)
	var wire bytes.Buffer
	if err := transport.WriteRecord(&wire, transport.KindHeartbeat, hb.Next()); err != nil {
		return nil, err
	}
	m["fleet.heartbeat_bytes"] = float64(wire.Len())
	const rounds, perRound = 30, 16
	var plain, loaded []time.Duration
	for i := 0; i < rounds; i++ {
		d, err := ackAfter(0, hb)
		if err != nil {
			return nil, err
		}
		plain = append(plain, d)
		if d, err = ackAfter(perRound, hb); err != nil {
			return nil, err
		}
		loaded = append(loaded, d)
	}
	m["fleet.heartbeat_us"] = us(pct(loaded, 0.50)-pct(plain, 0.50)) / perRound

	// Deploy round trip: controller API call to the edge's ack. The
	// edge answers requests on its way to an upload ack, so keep one
	// coming.
	var deploys []time.Duration
	for i := 0; i < 10; i++ {
		art, err := synthedge.Artifact(fmt.Sprintf("mc-bench-%d", i), int64(i))
		if err != nil {
			return nil, err
		}
		res := make(chan error, 1)
		t0 := time.Now()
		go func() { res <- ctrl.Deploy("edge-bench", "cam0", art, 0.5) }()
		want := e.Deploys + 1
		for e.Deploys < want {
			if _, err := ackAfter(0, hb); err != nil {
				return nil, err
			}
		}
		if err := <-res; err != nil {
			return nil, fmt.Errorf("layers: deploy round trip: %w", err)
		}
		deploys = append(deploys, time.Since(t0))
	}
	m["fleet.deploy_rtt_ms"] = ms(pct(deploys, 0.50))

	// metrics: merging per-shard summaries of a mid-sized fleet.
	var parts []metrics.FleetSummary
	for shard := 0; shard < 8; shard++ {
		var loads []metrics.NodeLoad
		for n := 0; n < 64; n++ {
			loads = append(loads, metrics.NodeLoad{
				Node: fmt.Sprintf("n%d-%d/cam0", shard, n), Frames: 10_000 + n, FPS: 15,
				Uploads: 40 + n, UploadedBits: int64(4_000_000 + 1000*n),
				Scores: obs.SketchSnapshot{Count: 10_000, Passes: 3000},
			})
		}
		parts = append(parts, metrics.SummarizeFleet(loads))
	}
	const merges = 20_000
	m["metrics.merge_fleet_us"] = us(total(merges, func(int) { metrics.MergeFleet(parts) })) / merges

	t0 := time.Now()
	err = ctrl.Close()
	closed = true
	m["fleet.close_ms"] = ms(time.Since(t0))
	return m, err
}
