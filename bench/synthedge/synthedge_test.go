package synthedge

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/transport"
)

const ioTimeout = 5 * time.Second

func startController(t *testing.T) (*fleet.Controller, *simnet.Network) {
	t.Helper()
	n := simnet.New(1)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := fleet.NewController(fleet.ControllerConfig{Timeout: ioTimeout})
	ctrl.Serve(ln)
	t.Cleanup(func() { ctrl.Close() })
	return ctrl, n
}

func dial(t *testing.T, n *simnet.Network, node string) *Edge {
	t.Helper()
	conn, err := n.Dial(node, "dc")
	if err != nil {
		t.Fatal(err)
	}
	e, err := Handshake(conn, fleet.Hello{
		Node:    node,
		Streams: []fleet.StreamInfo{{Name: "cam0", Width: 96, Height: 54, FPS: 15}},
	}, ioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func ledger(t *testing.T, ctrl *fleet.Controller, node string) []core.Upload {
	t.Helper()
	var ups []core.Upload
	err := ctrl.WithNodeDatacenter(node, func(dc *core.Datacenter) {
		for _, app := range dc.KnownApplications() {
			ups = append(ups, dc.Uploads(app)...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return ups
}

func upload(seq uint64) transport.UploadRecord {
	return transport.UploadRecord{MCName: "cam0/mc", EventID: seq, Start: int(seq) * 10, End: int(seq)*10 + 8, Bits: 1000 + int64(seq), Final: true, Seq: seq}
}

func TestHandshakeRegistersSession(t *testing.T) {
	ctrl, n := startController(t)
	e := dial(t, n, "edge-a")
	if e.Welcome.SessionID == 0 {
		t.Fatalf("welcome carries no session ID: %+v", e.Welcome)
	}
	nodes := ctrl.ListNodes()
	if len(nodes) != 1 || nodes[0].Node != "edge-a" || nodes[0].ID != e.Welcome.SessionID {
		t.Fatalf("controller registry = %+v, want one session for edge-a", nodes)
	}
	if err := e.Bye(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowedUploadsAckedBySeq(t *testing.T) {
	ctrl, n := startController(t)
	e := dial(t, n, "edge-a")
	const total, window = 40, 8
	next, acked := uint64(1), 0
	seen := make(map[uint64]bool)
	for acked < total {
		for e.InFlight() < window && next <= total {
			if err := e.SendUpload(upload(next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if e.InFlight() > window {
			t.Fatalf("%d uploads in flight, window is %d", e.InFlight(), window)
		}
		a, err := e.ReadAck(ioTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if a.Duplicate || a.RTT <= 0 || seen[a.Seq] {
			t.Fatalf("ack %+v: want a first-time ack with a round-trip time", a)
		}
		seen[a.Seq] = true
		acked++
	}
	if e.InFlight() != 0 {
		t.Fatalf("%d uploads still in flight after every ack", e.InFlight())
	}
	if got := len(ledger(t, ctrl, "edge-a")); got != total {
		t.Fatalf("ledger holds %d uploads, want %d", got, total)
	}
	if err := e.Bye(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateResendAckedNotCounted(t *testing.T) {
	ctrl, n := startController(t)
	e := dial(t, n, "edge-a")
	for seq := uint64(1); seq <= 3; seq++ {
		if err := e.SendUpload(upload(seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.ResendUpload(upload(2)); err != nil {
		t.Fatal(err)
	}
	var first, dups int
	for i := 0; i < 4; i++ {
		a, err := e.ReadAck(ioTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if a.Duplicate {
			dups++
			if a.Seq != 2 {
				t.Fatalf("duplicate ack for %d, want 2", a.Seq)
			}
		} else {
			first++
		}
	}
	if first != 3 || dups != 1 {
		t.Fatalf("got %d first-time and %d duplicate acks, want 3 and 1", first, dups)
	}
	if got := len(ledger(t, ctrl, "edge-a")); got != 3 {
		t.Fatalf("ledger holds %d uploads after a re-send, want 3", got)
	}
	if _, err := e.ReadAck(50 * time.Millisecond); err == nil {
		t.Fatal("an ack arrived that no upload accounts for")
	}
}

func TestHeartbeatAccepted(t *testing.T) {
	ctrl, n := startController(t)
	e := dial(t, n, "edge-a")
	hb := fleet.Heartbeat{
		Streams: map[string]fleet.StreamStats{"cam0": {Frames: 120, Uploads: 3}},
		Scores:  map[string]map[string]obs.SketchSnapshot{"cam0": {"mc": {Count: 120, Passes: 30}}},
	}
	if err := e.SendHeartbeat(hb); err != nil {
		t.Fatal(err)
	}
	// An upload behind the heartbeat on the same FIFO session: once
	// it is acked the heartbeat has been handled.
	if err := e.SendUpload(upload(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ReadAck(ioTimeout); err != nil {
		t.Fatal(err)
	}
	nodes := ctrl.ListNodes()
	if len(nodes) != 1 || nodes[0].Heartbeat.Streams["cam0"].Frames != 120 {
		t.Fatalf("controller did not record the heartbeat: %+v", nodes)
	}
}

func TestByeEndsSessionCleanly(t *testing.T) {
	ctrl, n := startController(t)
	e := dial(t, n, "edge-a")
	s, err := ctrl.Session("edge-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Bye(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Done():
	case <-time.After(ioTimeout):
		t.Fatal("session still open after bye")
	}
	if err := s.Err(); err != nil {
		t.Fatalf("session ended with %v after a clean bye", err)
	}
}

func TestControlRequestAnswered(t *testing.T) {
	ctrl, n := startController(t)
	e := dial(t, n, "edge-a")
	done := make(chan error, 1)
	go func() {
		s, err := ctrl.Session("edge-a")
		if err != nil {
			done <- err
			return
		}
		done <- s.Undeploy("cam0", "mc")
	}()
	// Requests are answered on the way to the next upload ack.
	for seq := uint64(1); e.Undeploys == 0; seq++ {
		if err := e.SendUpload(upload(seq)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ReadAck(ioTimeout); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("undeploy round trip: %v", err)
		}
	case <-time.After(ioTimeout):
		t.Fatal("controller never got the undeploy ack")
	}
}
