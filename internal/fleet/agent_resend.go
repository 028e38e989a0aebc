package fleet

import (
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/walog"
)

// resendLog is the agent's exactly-once upload buffer: a value with no
// I/O and no lock of its own (the agent guards it with sessMu). Each
// upload gets the next sequence number and stays until the controller
// acks it or an overflow drops it. Each connection is an epoch: rewind
// starts one, and the unacked records are offered to it again from the
// front. take offers the next record the epoch has not carried and
// stamps its send time before the write, because the ack can come back
// before the write returns; wrote moves the cursor past it once the
// write has returned, and only for a write on the current epoch, so a
// write that returns on a superseded connection changes nothing.
//
// Invariants, pinned by TestResendLogEnumerated against a list model:
//   - issued = acked + dropped + pending, with pending in sequence order;
//   - per epoch, records are offered in sequence order, none skipped and
//     none twice;
//   - an ack observes one round trip per retired record that was offered;
//   - a write from a stale epoch changes nothing.
type resendLog struct {
	max     int        // pending cap
	seq     uint64     // last sequence number issued
	epoch   uint64     // current connection epoch (0 before the first)
	entries []logEntry // unacked, in sequence order
	next    int        // entries[:next] were written on the current epoch
	dropped int        // records an overflow discarded unacked
}

// logEntry is one unacked upload with its last offer: when (zero:
// never offered) and on which connection epoch.
type logEntry struct {
	rec   transport.UploadRecord
	sent  time.Time
	epoch uint64
}

// add issues rec the next sequence number and appends it, dropping the
// oldest record when that overflows the cap.
func (l *resendLog) add(rec transport.UploadRecord) {
	l.seq++
	rec.Seq = l.seq
	l.entries = append(l.entries, logEntry{rec: rec})
	if len(l.entries) > l.max {
		l.entries = l.entries[1:]
		l.dropped++
		l.next = max(l.next-1, 0)
	}
}

// rewind starts a new connection epoch: nothing unacked has been
// written on it yet.
func (l *resendLog) rewind() {
	l.epoch++
	l.next = 0
}

// take returns the next record epoch has not carried, stamped as sent
// now on epoch, or false when there is none or epoch is stale.
func (l *resendLog) take(epoch uint64, now time.Time) (transport.UploadRecord, bool) {
	if epoch != l.epoch || l.next >= len(l.entries) {
		return transport.UploadRecord{}, false
	}
	e := &l.entries[l.next]
	e.sent, e.epoch = now, epoch
	return e.rec, true
}

// wrote moves the cursor past record seq once its write on epoch has
// returned. The cursor record must be the one taken on epoch, and epoch
// the current one; an ack or overflow that retired the record in
// between has already moved the cursor for it.
func (l *resendLog) wrote(epoch, seq uint64) {
	if epoch != l.epoch || l.next >= len(l.entries) {
		return
	}
	if e := l.entries[l.next]; e.rec.Seq == seq && e.epoch == epoch {
		l.next++
	}
}

// ack retires every record with sequence number at or below seq,
// observing into rtt (when non-nil) the round trip of each one that
// was offered. It costs what it retires.
func (l *resendLog) ack(seq uint64, now time.Time, rtt *obs.Histogram) {
	i := 0
	for ; i < len(l.entries) && l.entries[i].rec.Seq <= seq; i++ {
		if e := &l.entries[i]; !e.sent.IsZero() && rtt != nil {
			rtt.Observe(now.Sub(e.sent))
		}
	}
	// Re-slice rather than copy, so draining a big log after an outage
	// stays linear; the backing array is released once the log empties.
	l.entries = l.entries[i:]
	l.next = max(l.next-i, 0)
	if len(l.entries) == 0 {
		l.entries = nil
	}
}

// sendUploads appends a batch of uploads to the resend log and wakes
// the connection's writer; it never touches the network. Before the
// agent has held a session the batch is dropped (local-only
// operation); after that it waits in the log for the current or the
// next connection.
func (a *Agent) sendUploads(ups []core.Upload) {
	if len(ups) == 0 {
		return
	}
	a.sessMu.Lock()
	if !a.everOnline {
		a.sessMu.Unlock()
		return
	}
	for _, u := range ups {
		a.log.add(transport.ToRecord(u))
	}
	a.sessMu.Unlock()
	select {
	case a.wake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// drain writes, on l's writer, the records l's connection has not
// carried yet, each framed into the writer's buffer. Records stay in
// the log until acked; a write failure ends the writer, whose
// connection the next one replaces, and that one offers them again.
func (a *Agent) drain(l *link) error {
	a.sessMu.Lock()
	defer a.sessMu.Unlock()
	for {
		t0 := time.Now()
		rec, ok := a.log.take(l.epoch, t0)
		if !ok {
			return nil
		}
		a.sessMu.Unlock()
		b, _ := rec.AppendBinary(l.buf[:walog.RecordHeaderLen]) // the upload layout never fails
		err := l.put(transport.KindUpload, b, a.cfg.WriteTimeout)
		if o := a.cfg.Edge.Obs; o != nil && err == nil {
			d := time.Since(t0)
			o.Upload.Observe(d)
			o.Trace.Record(obs.StageUpload, a.uploadStreamID(rec.MCName), int64(rec.Start), t0, d)
		}
		a.sessMu.Lock()
		if err != nil {
			return err
		}
		a.log.wrote(l.epoch, rec.Seq)
	}
}

// handleUploadAck retires acked uploads from the resend log and feeds
// their send-to-ack round trips into the upload-RTT histogram.
func (a *Agent) handleUploadAck(ua UploadAck) {
	var rtt *obs.Histogram
	if o := a.cfg.Edge.Obs; o != nil {
		rtt = o.UploadRTT
	}
	a.sessMu.Lock()
	a.log.ack(ua.Seq, time.Now(), rtt)
	a.sessMu.Unlock()
}

// uploadStreamID resolves an upload's interned trace-stream ID from
// its "stream/mc" name; uploads from unprefixed (local) MCs land on a
// node-level "uplink" track.
func (a *Agent) uploadStreamID(mcName string) uint32 {
	stream, _, ok := strings.Cut(mcName, "/")
	if !ok {
		stream = "uplink"
	}
	return a.cfg.Edge.Obs.Trace.StreamID(stream)
}
