package fleet

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// The enumeration bound: every op sequence of resendDepth ops over a log
// capped at resendCap records (so overflow is reachable) that issues at
// most resendIssued records.
const (
	resendCap    = 2
	resendIssued = 3
	resendDepth  = 9
)

// listModel specifies the resend log with plain lists.
type listModel struct {
	issued  uint64
	pending []uint64 // neither acked nor dropped, in sequence order
	acked   int
	dropped int
	written []uint64 // records whose write returned on the current epoch
	// offeredAt is each record's last offer time (zero: never offered).
	offeredAt [resendIssued + 1]time.Time
}

func (m *listModel) add() {
	m.issued++
	m.pending = append(m.pending, m.issued)
	if len(m.pending) > resendCap {
		m.pending = m.pending[1:]
		m.dropped++
	}
}

// next is the record the current epoch must be offered: the first
// pending one not yet written on it. Offering a later one skips it;
// offering a written one offers it twice.
func (m *listModel) next() (uint64, bool) {
	for _, s := range m.pending {
		if !slices.Contains(m.written, s) {
			return s, true
		}
	}
	return 0, false
}

// ack retires the pending records at or below k and returns how many
// round trips that observes (one per offered record) and their sum.
func (m *listModel) ack(k uint64, now time.Time) (n uint64, sum time.Duration) {
	for len(m.pending) > 0 && m.pending[0] <= k {
		s := m.pending[0]
		m.pending = m.pending[1:]
		m.acked++
		if at := m.offeredAt[s]; !at.IsZero() {
			n++
			sum += now.Sub(at)
		}
	}
	return n, sum
}

// resendState is one node of the enumeration: the log, the model, and
// the write in flight. A connection's one writer runs take to wrote,
// so at most one write is in flight.
type resendState struct {
	log      resendLog
	model    listModel
	inflight uint64 // the taken record awaiting its wrote (0: none)
	takenOn  uint64 // the epoch it was taken on
}

func (st *resendState) clone() resendState {
	c := *st
	c.log.entries = slices.Clone(st.log.entries)
	c.model.pending = slices.Clone(st.model.pending)
	c.model.written = slices.Clone(st.model.written)
	return c
}

type resendOpKind int

const (
	opAdd resendOpKind = iota
	opOverflow
	opTake
	opWrote
	opAck
	opRewind
)

type resendOp struct {
	kind resendOpKind
	k    uint64 // opAck's sequence number
}

func (op resendOp) String() string {
	switch op.kind {
	case opAdd:
		return "add"
	case opOverflow:
		return "overflow"
	case opTake:
		return "take"
	case opWrote:
		return "wrote"
	case opAck:
		return fmt.Sprintf("ack(%d)", op.k)
	}
	return "rewind"
}

// enabled lists the ops st admits: add below the cap, overflow at it,
// take with no write in flight, wrote with one (on the current or a
// stale epoch, as rewinds fell), ack of any issued sequence number, and
// rewind.
func (st *resendState) enabled() []resendOp {
	var ops []resendOp
	if st.model.issued < resendIssued {
		if len(st.model.pending) < resendCap {
			ops = append(ops, resendOp{kind: opAdd})
		} else {
			ops = append(ops, resendOp{kind: opOverflow})
		}
	}
	if st.inflight == 0 {
		ops = append(ops, resendOp{kind: opTake})
	} else {
		ops = append(ops, resendOp{kind: opWrote})
	}
	for k := uint64(1); k <= st.model.issued; k++ {
		ops = append(ops, resendOp{kind: opAck, k: k})
	}
	return append(ops, resendOp{kind: opRewind})
}

// apply runs op on the log and the model and returns the invariant it
// broke, "" if none.
func (st *resendState) apply(op resendOp, now time.Time) string {
	l, m := &st.log, &st.model
	switch op.kind {
	case opAdd, opOverflow:
		l.add(transport.UploadRecord{MCName: "cam0/m"})
		m.add()
	case opTake:
		rec, ok := l.take(l.epoch, now)
		want, wantOK := m.next()
		if ok != wantOK || rec.Seq != want {
			return fmt.Sprintf("take offered %d (%v), want %d (%v)", rec.Seq, ok, want, wantOK)
		}
		if ok {
			st.inflight, st.takenOn = rec.Seq, l.epoch
			m.offeredAt[rec.Seq] = now
		}
	case opWrote:
		if st.takenOn == l.epoch {
			l.wrote(st.takenOn, st.inflight)
			m.written = append(m.written, st.inflight)
		} else {
			before := st.clone()
			l.wrote(st.takenOn, st.inflight)
			if !reflect.DeepEqual(before.log, *l) {
				return "a write on a stale epoch changed the log"
			}
		}
		st.inflight = 0
	case opAck:
		var rtt obs.Histogram
		l.ack(op.k, now, &rtt)
		n, sum := m.ack(op.k, now)
		if got := rtt.Snapshot(); got.Count != n || time.Duration(got.Sum) != sum {
			return fmt.Sprintf("ack observed %d round trips summing %v, want %d summing %v",
				got.Count, time.Duration(got.Sum), n, sum)
		}
	case opRewind:
		l.rewind()
		m.written = nil
	}
	// Conservation: issued = acked + dropped + pending, in sequence order.
	var seqs []uint64
	for _, e := range l.entries {
		seqs = append(seqs, e.rec.Seq)
	}
	switch {
	case l.seq != m.issued:
		return fmt.Sprintf("issued %d, want %d", l.seq, m.issued)
	case !slices.Equal(seqs, m.pending):
		return fmt.Sprintf("pending %v, want %v", seqs, m.pending)
	case l.dropped != m.dropped:
		return fmt.Sprintf("dropped %d, want %d", l.dropped, m.dropped)
	}
	return ""
}

// TestResendLogEnumerated drives the resend log through every op
// sequence up to the bound and checks it against listModel after each
// op: conservation in sequence order, per-epoch offers with no record
// skipped or offered twice, one round trip per acked record that was
// offered (measured from its last offer), and stale writes that change
// nothing.
func TestResendLogEnumerated(t *testing.T) {
	start := time.Now()
	seen := make(map[resendOpKind]int)
	var trace []resendOp
	sequences := 0
	var walk func(st resendState)
	walk = func(st resendState) {
		if len(trace) == resendDepth {
			sequences++
			return
		}
		// The clock ticks once per op, so every offer and ack has its
		// own time and a round trip measured from the wrong one shows.
		now := time.Unix(0, 0).Add(time.Duration(len(trace)+1) * time.Millisecond)
		for _, op := range st.enabled() {
			next := st.clone()
			trace = append(trace, op)
			seen[op.kind]++
			if msg := next.apply(op, now); msg != "" {
				t.Fatalf("%s, after %v", msg, trace)
			}
			walk(next)
			trace = trace[:len(trace)-1]
		}
	}
	walk(resendState{log: resendLog{max: resendCap}})
	for kind := opAdd; kind <= opRewind; kind++ {
		if seen[kind] == 0 {
			t.Fatalf("op %v never ran", resendOp{kind: kind})
		}
	}
	t.Logf("%d sequences of %d ops in %v", sequences, resendDepth, time.Since(start))
}
