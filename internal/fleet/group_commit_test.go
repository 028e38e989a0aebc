package fleet

import (
	"encoding/binary"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/walog"
)

// uploadRecord is the upload scriptedEdge.upload sends for seq.
func uploadRecord(seq uint64) transport.UploadRecord {
	start := 10 * int(seq)
	return transport.UploadRecord{MCName: "cam0/mc-1", EventID: seq, Start: start, End: start + 4, Bits: 1000 + int64(seq), Final: true, Seq: seq}
}

// sendUploads writes the uploads of seqs, then the records of extra, to
// the controller in one write, as an edge's resend buffer or a burst of
// frames can: they reach the session together.
func (e *scriptedEdge) sendUploads(seqs []uint64, extra ...[]byte) {
	e.t.Helper()
	var b []byte
	for _, seq := range seqs {
		rec, err := transport.EncodeRecord(transport.KindUpload, uploadRecord(seq))
		if err != nil {
			e.t.Fatal(err)
		}
		b = append(b, rec...)
	}
	for _, rec := range extra {
		b = append(b, rec...)
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if _, err := e.conn.Write(b); err != nil {
		e.t.Fatalf("scripted edge write: %v", err)
	}
}

// awaitAcks returns the next n upload acks, in arrival order.
func (e *scriptedEdge) awaitAcks(n int) []uint64 {
	e.t.Helper()
	var got []uint64
	for len(got) < n {
		select {
		case seq := <-e.acks:
			got = append(got, seq)
		case <-time.After(10 * time.Second):
			e.t.Fatalf("%d of %d acks arrived: %v", len(got), n, got)
		}
	}
	return got
}

// ackGroup is one write of upload acks as it reached the connection:
// the acked sequence numbers, and how many bytes after its compacted
// prefix the shard's wal had written and synced at that moment.
type ackGroup struct {
	seqs         []uint64
	size, synced int64
}

// ackWatch is a listener whose connections record every write of
// upload acks the controller makes (see ackGroup), reading sh's wal as
// each one reaches the connection.
type ackWatch struct {
	net.Listener
	sh     *shard
	mu     sync.Mutex
	groups []ackGroup
}

func (w *ackWatch) Accept() (net.Conn, error) {
	conn, err := w.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return ackWatchConn{conn, w}, nil
}

type ackWatchConn struct {
	net.Conn
	w *ackWatch
}

func (c ackWatchConn) Write(b []byte) (int, error) {
	if seqs := uploadAcks(b); len(seqs) > 0 {
		c.w.sh.mu.Lock()
		g := ackGroup{seqs: seqs, size: c.w.sh.wal.Size(), synced: c.w.sh.wal.Synced()}
		c.w.sh.mu.Unlock()
		c.w.mu.Lock()
		c.w.groups = append(c.w.groups, g)
		c.w.mu.Unlock()
	}
	return c.Conn.Write(b)
}

// uploadAcks returns the sequence numbers of b's upload acks when b is
// whole upload-ack records and nothing else, nil otherwise.
func uploadAcks(b []byte) []uint64 {
	var seqs []uint64
	for len(b) >= walog.RecordHeaderLen {
		n := walog.RecordHeaderLen + int(binary.BigEndian.Uint32(b[1:5]))
		if n > len(b) {
			return nil
		}
		kind, body, err := walog.CheckRecord(b[:n])
		var ack UploadAck
		if err != nil || kind != transport.KindUploadAck || ack.UnmarshalBinary(body) != nil {
			return nil
		}
		seqs = append(seqs, ack.Seq)
		b = b[n:]
	}
	if len(b) > 0 {
		return nil
	}
	return seqs
}

// loggedUploadEnds reads the wal of a crashed shard's directory and
// returns, for each logged upload's sequence number, the offset after
// the compacted prefix where its record ends. A sequence number logged
// twice fails the test.
func loggedUploadEnds(t *testing.T, dir string) map[uint64]int64 {
	t.Helper()
	l, err := walog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ends := make(map[uint64]int64)
	var off int64
	for _, r := range l.Records() {
		off += walog.RecordHeaderLen + int64(len(r.Payload))
		if r.Kind != wrecUpload {
			continue
		}
		rec, err := decodeRecord(r.Kind, r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		seq := rec.(*uploadRec).Rec.Seq
		if _, twice := ends[seq]; twice {
			t.Fatalf("upload %d logged twice", seq)
		}
		ends[seq] = off
	}
	return ends
}

// groupRig is a durable controller serving one scripted edge over the
// simulated network, with every ack write watched.
type groupRig struct {
	cfg   ControllerConfig
	ctrl  *Controller
	sh    *shard
	watch *ackWatch
	edge  *scriptedEdge
}

const groupNode = "edge-1"

func newGroupRig(t *testing.T, cfg ControllerConfig) *groupRig {
	t.Helper()
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Timeout, cfg.StateDir, cfg.SnapshotEvery = 10*time.Second, t.TempDir(), -1
	ctrl, _, err := OpenController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &groupRig{cfg: cfg, ctrl: ctrl, sh: ctrl.shards[ctrl.ShardOf(groupNode)]}
	r.watch = &ackWatch{Listener: ln, sh: r.sh}
	ctrl.Serve(r.watch)
	t.Cleanup(func() { r.ctrl.Crash() })
	r.edge = dialScripted(t, n, Hello{Node: groupNode})
	return r
}

// walDir is the directory of the rig's shard log.
func (r *groupRig) walDir() string { return filepath.Join(r.cfg.StateDir, shardDirName(r.sh.id)) }

// TestAcksFollowTheirGroupsWrite: bursts of uploads, retransmissions
// among them, reach the session in one write each and commit as
// groups; every write of acks reaches the connection only once the wal
// holds every record it acks — written, and under WALSync synced — and
// every upload is logged exactly once.
func TestAcksFollowTheirGroupsWrite(t *testing.T) {
	for _, walSync := range []bool{false, true} {
		t.Run(map[bool]string{false: "page-cache", true: "wal-sync"}[walSync], func(t *testing.T) {
			r := newGroupRig(t, ControllerConfig{WALSync: walSync})
			seq := uint64(0)
			for burst := range 30 {
				var seqs []uint64
				for range 1 + burst%8 {
					seq++
					seqs = append(seqs, seq)
				}
				if burst%4 == 3 {
					seqs = append(seqs, seqs[0], seq-uint64(burst)) // a retransmission within the burst and one of long ago
				}
				r.edge.sendUploads(seqs)
				if got := r.edge.awaitAcks(len(seqs)); !slices.Equal(got, seqs) {
					t.Fatalf("burst %d: acks %v, want %v", burst, got, seqs)
				}
			}
			r.watch.mu.Lock()
			groups := r.watch.groups
			r.watch.mu.Unlock()
			r.ctrl.Crash()

			ends := loggedUploadEnds(t, r.walDir())
			if len(ends) != int(seq) {
				t.Fatalf("%d uploads logged, want %d", len(ends), seq)
			}
			largest := 0
			for _, g := range groups {
				largest = max(largest, len(g.seqs))
				for _, s := range g.seqs {
					if ends[s] > g.size {
						t.Fatalf("ack of upload %d reached the connection with %d wal bytes written; its record ends at %d", s, g.size, ends[s])
					}
					if walSync && ends[s] > g.synced {
						t.Fatalf("ack of upload %d reached the connection with %d wal bytes synced; its record ends at %d", s, g.synced, ends[s])
					}
				}
			}
			if largest < 8 {
				t.Fatalf("the largest ack write carried %d acks: the bursts were not committed as groups", largest)
			}
		})
	}
}

// TestGroupDedupsRetransmission: uploads 1, 2, 2 and 3 in one conn
// write, as an edge that resends an upload sends them, commit as one
// group: all four are acked, in one write, each sequence number is
// logged once, and a crash and reopen recover the same ledger.
func TestGroupDedupsRetransmission(t *testing.T) {
	r := newGroupRig(t, ControllerConfig{})
	seqs := []uint64{1, 2, 2, 3}
	r.edge.sendUploads(seqs)
	if got := r.edge.awaitAcks(len(seqs)); !slices.Equal(got, seqs) {
		t.Fatalf("acks %v, want %v", got, seqs)
	}
	st := r.ctrl.ShardStats()[r.sh.id]
	if st.WALWrites != 1 || st.WALRecords != 3 {
		t.Fatalf("%d wal writes carrying %d records, want the group's 3 in one", st.WALWrites, st.WALRecords)
	}
	r.watch.mu.Lock()
	if len(r.watch.groups) != 1 {
		t.Fatalf("the acks left in %d writes, want 1", len(r.watch.groups))
	}
	r.watch.mu.Unlock()
	before := nodeUploads(t, r.ctrl, groupNode, "cam0/mc-1")
	if len(before) != 3 {
		t.Fatalf("ledger holds %d uploads, want 3", len(before))
	}

	r.ctrl.Crash()
	if ends := loggedUploadEnds(t, r.walDir()); len(ends) != 3 {
		t.Fatalf("%d uploads logged, want 3", len(ends))
	}
	var err error
	if r.ctrl, _, err = OpenController(r.cfg); err != nil {
		t.Fatal(err)
	}
	if after := nodeUploads(t, r.ctrl, groupNode, "cam0/mc-1"); !reflect.DeepEqual(after, before) {
		t.Fatalf("recovered ledger %v, want %v", after, before)
	}
}

// TestGroupAfterAbandonNeitherAppliedNorAcked: a group whose wal write
// fails — the log closed under the shard, as a crash leaves it — fences
// the shard, lands in no ledger and is acked nowhere, while a
// retransmission of an upload logged before is still acked.
func TestGroupAfterAbandonNeitherAppliedNorAcked(t *testing.T) {
	r := newGroupRig(t, ControllerConfig{})
	r.edge.upload(1, 10)
	r.sh.mu.Lock()
	r.sh.wal.Abandon()
	r.sh.mu.Unlock()

	r.edge.sendUploads([]uint64{2, 3})
	r.edge.upload(1, 10) // its ack would follow any ack of 2 or 3
	if got := nodeUploads(t, r.ctrl, groupNode, "cam0/mc-1"); len(got) != 1 || got[0].EventID != 1 {
		t.Fatalf("ledger %v after the failed write, want upload 1 alone", got)
	}
	st := r.ctrl.ShardStats()[r.sh.id]
	if st.WALWrites != 2 || st.WALRecords != 3 {
		t.Fatalf("%d wal writes carrying %d records, want upload 1's and the failed group's", st.WALWrites, st.WALRecords)
	}
	r.sh.mu.Lock()
	fenced := r.sh.fenced
	r.sh.mu.Unlock()
	if fenced == nil {
		t.Fatal("a failed group write left the shard unfenced")
	}
}

// TestHeartbeatFlushesPendingGroup: a heartbeat between uploads that
// arrive in one write commits the uploads before it as their own group
// before the heartbeat is handled, and the ones after it once it is.
func TestHeartbeatFlushesPendingGroup(t *testing.T) {
	var mu sync.Mutex
	sawHeartbeat := map[uint64]bool{}
	r := newGroupRig(t, ControllerConfig{OnUpload: func(s *Session, u core.Upload) {
		_, at := s.lastHeartbeat()
		mu.Lock()
		sawHeartbeat[u.EventID] = !at.IsZero()
		mu.Unlock()
	}})
	hb, err := transport.EncodeRecord(transport.KindHeartbeat, Heartbeat{})
	if err != nil {
		t.Fatal(err)
	}
	up3, err := transport.EncodeRecord(transport.KindUpload, uploadRecord(3))
	if err != nil {
		t.Fatal(err)
	}
	r.edge.sendUploads([]uint64{1, 2}, hb, up3)
	if got := r.edge.awaitAcks(3); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("acks %v, want 1, 2, 3", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := map[uint64]bool{1: false, 2: false, 3: true}; !reflect.DeepEqual(sawHeartbeat, want) {
		t.Fatalf("heartbeat handled before each upload's commit: %v, want %v", sawHeartbeat, want)
	}
	if st := r.ctrl.ShardStats()[r.sh.id]; st.WALWrites != 2 || st.WALRecords != 3 {
		t.Fatalf("%d wal writes carrying %d records, want 1 and 2, then 3", st.WALWrites, st.WALRecords)
	}
}
