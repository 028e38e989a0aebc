package simnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/walog"
)

var testListeners = struct {
	sync.Mutex
	m map[*Network]map[string]*Listener
}{m: make(map[*Network]map[string]*Listener)}

// accept1 dials from client to server and returns both ends, creating
// (and caching) the server's listener on first use.
func accept1(t *testing.T, n *Network, client, server string) (net.Conn, net.Conn) {
	t.Helper()
	testListeners.Lock()
	byAddr := testListeners.m[n]
	if byAddr == nil {
		byAddr = make(map[string]*Listener)
		testListeners.m[n] = byAddr
	}
	ln := byAddr[server]
	if ln == nil {
		var err error
		ln, err = n.Listen(server)
		if err != nil {
			testListeners.Unlock()
			t.Fatal(err)
		}
		byAddr[server] = ln
		t.Cleanup(func() {
			ln.Close()
			testListeners.Lock()
			delete(byAddr, server)
			testListeners.Unlock()
		})
	}
	testListeners.Unlock()
	type acc struct {
		c   net.Conn
		err error
	}
	ch := make(chan acc, 1)
	go func() {
		c, err := ln.Accept()
		ch <- acc{c, err}
	}()
	cc, err := n.Dial(client, server)
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	return cc, a.c
}

func TestConnBasics(t *testing.T) {
	n := New(1)
	cc, sc := accept1(t, n, "edge", "dc")
	if cc.LocalAddr().String() != "edge" || cc.RemoteAddr().String() != "dc" {
		t.Fatalf("client addrs wrong: %v -> %v", cc.LocalAddr(), cc.RemoteAddr())
	}
	if sc.LocalAddr().String() != "dc" || sc.RemoteAddr().String() != "edge" {
		t.Fatalf("server addrs wrong: %v -> %v", sc.LocalAddr(), sc.RemoteAddr())
	}

	msg := []byte("hello fleet")
	if _, err := cc.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(sc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q, want %q", got, msg)
	}

	// Reverse direction works too.
	if _, err := sc.Write([]byte("ack")); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, 3)
	if _, err := io.ReadFull(cc, got); err != nil {
		t.Fatal(err)
	}

	// Close drains then EOFs the peer; local ops fail.
	cc.Write([]byte("bye"))
	cc.Close()
	got = make([]byte, 3)
	if _, err := io.ReadFull(sc, got); err != nil || string(got) != "bye" {
		t.Fatalf("drain after close: %q, %v", got, err)
	}
	if _, err := sc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer read after close = %v, want io.EOF", err)
	}
	if _, err := cc.Write([]byte("x")); err == nil {
		t.Fatal("write after close succeeded")
	}
	if _, err := sc.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
}

func TestDialErrors(t *testing.T) {
	n := New(1)
	if _, err := n.Dial("edge", "nobody"); !errors.Is(err, errRefused) {
		t.Fatalf("dial to missing listener = %v, want errRefused", err)
	}
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("dc"); err == nil {
		t.Fatal("double listen accepted")
	}
	ln.Close()
	if _, err := n.Dial("edge", "dc"); !errors.Is(err, errRefused) {
		t.Fatalf("dial to closed listener = %v, want errRefused", err)
	}
}

func TestReadDeadline(t *testing.T) {
	n := New(1)
	cc, sc := accept1(t, n, "edge", "dc")
	cc.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := cc.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past deadline = %v, want os.ErrDeadlineExceeded", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("deadline fired way too early")
	}
	// Clearing the deadline makes reads block again, past the old
	// deadline, until data arrives.
	cc.SetReadDeadline(time.Time{})
	go func() {
		time.Sleep(50 * time.Millisecond)
		sc.Write([]byte("x"))
	}()
	b := make([]byte, 1)
	if _, err := cc.Read(b); err != nil || b[0] != 'x' {
		t.Fatalf("read after clearing the deadline = %q, %v", b, err)
	}
}

func TestStallAndWriteDeadline(t *testing.T) {
	n := New(1)
	cc, sc := accept1(t, n, "edge", "dc")
	n.SetStall("edge", "dc", true)

	// A stalled write with a deadline times out.
	cc.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := cc.Write([]byte("blocked")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled write = %v, want os.ErrDeadlineExceeded", err)
	}
	// Nothing leaked through while stalled, and the timed-out write
	// was not delivered.
	sc.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := sc.Read(make([]byte, 8)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read during stall = %v, want deadline", err)
	}
	sc.SetReadDeadline(time.Time{})

	// The reverse direction still flows: a one-way stall.
	if _, err := sc.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(cc, got); err != nil {
		t.Fatal(err)
	}

	// Unstalling releases a blocked writer.
	cc.SetWriteDeadline(time.Time{})
	done := make(chan error, 1)
	go func() {
		_, err := cc.Write([]byte("go"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	n.SetStall("edge", "dc", false)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(sc, got[:2]); err != nil || string(got[:2]) != "go" {
		t.Fatalf("post-stall delivery: %q, %v", got[:2], err)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(1)
	cc, sc := accept1(t, n, "edge", "dc")
	n.Partition("edge", "dc")

	if _, err := cc.Write([]byte("x")); !errors.Is(err, errSevered) {
		t.Fatalf("write on severed conn = %v, want errSevered", err)
	}
	if _, err := sc.Read(make([]byte, 1)); !errors.Is(err, errSevered) {
		t.Fatalf("read on severed conn = %v, want errSevered", err)
	}
	if _, err := n.Dial("edge", "dc"); !errors.Is(err, errRefused) {
		t.Fatalf("dial while partitioned = %v, want errRefused", err)
	}
	// Other endpoints are unaffected.
	oc, os2 := accept1(t, n, "edge-2", "dc")
	if _, err := oc.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 2)
	if _, err := io.ReadFull(os2, b); err != nil {
		t.Fatal(err)
	}

	n.Heal("edge", "dc")
	// The severed conn stays dead; a fresh dial works.
	if _, err := cc.Write([]byte("x")); !errors.Is(err, errSevered) {
		t.Fatal("severed conn came back to life")
	}
	nc, ns := accept1(t, n, "edge", "dc2")
	_ = ns
	_ = nc
	c2, err := n.Dial("edge", "dc")
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()
}

// TestPartitionUnblocksWaiters checks a partition wakes readers and
// writers already blocked on the link.
func TestPartitionUnblocksWaiters(t *testing.T) {
	n := New(1)
	cc, sc := accept1(t, n, "edge", "dc")
	n.SetStall("edge", "dc", true)
	werr := make(chan error, 1)
	rerr := make(chan error, 1)
	go func() {
		_, err := cc.Write([]byte("stuck"))
		werr <- err
	}()
	go func() {
		_, err := sc.Read(make([]byte, 1))
		rerr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	n.Partition("edge", "dc")
	if err := <-werr; !errors.Is(err, errSevered) {
		t.Fatalf("blocked write = %v, want errSevered", err)
	}
	if err := <-rerr; !errors.Is(err, errSevered) {
		t.Fatalf("blocked read = %v, want errSevered", err)
	}
}

func TestCorruptNextDeterministic(t *testing.T) {
	payload := []byte("0123456789abcdef0123456789abcdef")
	run := func(seed int64) []byte {
		n := New(seed)
		cc, sc := accept1(t, n, "edge", "dc")
		if err := n.CorruptNext("edge", "dc", 12); err != nil {
			t.Fatal(err)
		}
		if _, err := cc.Write(payload); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload))
		if _, err := io.ReadFull(sc, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a := run(42)
	b := run(42)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different corruption:\n%x\n%x", a, b)
	}
	if bytes.Equal(a, payload) {
		t.Fatal("corruption did not change the payload")
	}
	for i := range a {
		if a[i] != payload[i] && i != 12 {
			t.Fatalf("corruption hit offset %d, want 12", i)
		}
	}
	if a[12] == payload[12] {
		t.Fatal("offset 12 unchanged")
	}
	// Arming a fault on a dead direction reports it.
	n := New(1)
	if err := n.CorruptNext("edge", "dc", 0); err == nil {
		t.Fatal("corrupt with no live connection accepted")
	}
}

func TestCorruptOffsetSpansWrites(t *testing.T) {
	// The armed offset is a stream position: it lands in a later write
	// when the next write is shorter.
	n := New(7)
	cc, sc := accept1(t, n, "edge", "dc")
	if err := n.CorruptNext("edge", "dc", 10); err != nil {
		t.Fatal(err)
	}
	cc.Write([]byte("01234567")) // 8 bytes: untouched
	cc.Write([]byte("89abcdef")) // stream offset 10 = index 2 here
	got := make([]byte, 16)
	if _, err := io.ReadFull(sc, got); err != nil {
		t.Fatal(err)
	}
	want := []byte("0123456789abcdef")
	for i := range got {
		if got[i] != want[i] && i != 10 {
			t.Fatalf("corruption hit offset %d, want 10", i)
		}
	}
	if got[10] == want[10] {
		t.Fatal("offset 10 unchanged")
	}
}

// readResult runs one Read on c in a goroutine and reports its error.
func readResult(c net.Conn) <-chan error {
	ch := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		ch <- err
	}()
	return ch
}

// within waits for the blocked operation's error, failing the test if
// it takes longer than limit.
func within(t *testing.T, what string, ch <-chan error, limit time.Duration) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(limit):
		t.Fatalf("%s still blocked after %v", what, limit)
		return nil
	}
}

// TestReadDeadlineToPastUnblocks is the net.Conn idiom for interrupting
// a blocked Read: setting the deadline to now.
func TestReadDeadlineToPastUnblocks(t *testing.T) {
	n := New(1)
	cc, _ := accept1(t, n, "edge", "dc")
	ch := readResult(cc)
	time.Sleep(20 * time.Millisecond)
	cc.SetReadDeadline(time.Now())
	if err := within(t, "read", ch, 5*time.Second); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("interrupted read = %v, want os.ErrDeadlineExceeded", err)
	}
}

func TestReadDeadlineMovedEarlier(t *testing.T) {
	n := New(1)
	cc, _ := accept1(t, n, "edge", "dc")
	cc.SetReadDeadline(time.Now().Add(time.Minute))
	ch := readResult(cc)
	time.Sleep(20 * time.Millisecond) // the read blocks with its timer armed for a minute
	cc.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if err := within(t, "read", ch, 5*time.Second); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read = %v, want os.ErrDeadlineExceeded", err)
	}
}

// TestDeadlinesPerDirection blocks a writer and a reader on the same
// pipe, each with its own deadline, the short one armed first: a timer
// shared by the two would be re-armed for the long deadline and leave
// the short one asleep.
func TestDeadlinesPerDirection(t *testing.T) {
	for _, shortWriter := range []bool{true, false} {
		n := New(1)
		cc, sc := accept1(t, n, "edge", "dc") // cc writes and sc reads the edge->dc pipe
		n.SetStall("edge", "dc", true)
		write := func(d time.Duration) <-chan error {
			cc.SetWriteDeadline(time.Now().Add(d))
			ch := make(chan error, 1)
			go func() {
				_, err := cc.Write([]byte("stuck"))
				ch <- err
			}()
			return ch
		}
		read := func(d time.Duration) <-chan error {
			sc.SetReadDeadline(time.Now().Add(d))
			return readResult(sc)
		}
		short, long, name := write, read, "stalled write"
		if !shortWriter {
			short, long, name = read, write, "read"
		}
		blocked := short(50 * time.Millisecond)
		time.Sleep(10 * time.Millisecond) // the short side waits first
		other := long(10 * time.Second)
		if err := within(t, name, blocked, 2*time.Second); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s = %v, want os.ErrDeadlineExceeded", name, err)
		}
		cc.Close()
		sc.Close()
		within(t, "the long-deadline side after close", other, 5*time.Second)
		// Close stopped the long side's timer: it would otherwise stay
		// pending for its full 10s.
		p := cc.(*conn).wr
		p.mu.Lock()
		for _, tm := range []*time.Timer{p.rTimer, p.wTimer} {
			if tm != nil && tm.Stop() {
				t.Error("a deadline timer was still pending after Close")
			}
		}
		p.mu.Unlock()
	}
}

// TestDeadlineWakeupNotLost checks the deadline timer's callback
// broadcasts under the pipe's lock. A blocking reader holds p.mu from
// its deadline check until cond.Wait releases it; a timer firing in
// that gap without the lock would broadcast to nobody, and the read
// would sleep past its deadline for good. The test stands in for that
// reader, holding p.mu while the timer fires.
func TestDeadlineWakeupNotLost(t *testing.T) {
	n := New(1)
	cc, _ := accept1(t, n, "edge", "dc")
	cc.SetReadDeadline(time.Now().Add(time.Millisecond))
	if _, err := cc.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read = %v, want os.ErrDeadlineExceeded", err)
	}
	p := cc.(*conn).rd
	p.mu.Lock()
	if p.rTimer == nil {
		p.mu.Unlock()
		t.Fatal("a blocked read with a deadline armed no timer")
	}
	p.rTimer.Reset(0)
	time.Sleep(20 * time.Millisecond) // the timer fires inside the gap
	rescued := false
	rescue := time.AfterFunc(2*time.Second, func() {
		p.mu.Lock()
		rescued = true
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	p.cond.Wait()
	lost := rescued
	p.mu.Unlock()
	rescue.Stop()
	if lost {
		t.Fatal("the deadline timer's wakeup was lost: it broadcast without the pipe's lock")
	}
}

// TestSteadyTrafficDoesNotAllocate is the per-message cost of the
// simulated wire: a write and a read, each with a deadline set and
// cleared around it as transport does, allocate nothing.
func TestSteadyTrafficDoesNotAllocate(t *testing.T) {
	n := New(1)
	cc, sc := accept1(t, n, "edge", "dc")
	msg, got := make([]byte, 300), make([]byte, 300)
	allocs := testing.AllocsPerRun(500, func() {
		cc.SetWriteDeadline(time.Now().Add(time.Second))
		if _, err := cc.Write(msg); err != nil {
			t.Fatal(err)
		}
		cc.SetWriteDeadline(time.Time{})
		sc.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := io.ReadFull(sc, got); err != nil {
			t.Fatal(err)
		}
		sc.SetReadDeadline(time.Time{})
	})
	if allocs != 0 {
		t.Fatalf("write+read allocates %v times, want 0", allocs)
	}
}

// pipeStorage is a pipe's buffer capacity and unread byte count.
func pipeStorage(p *pipe) (capacity, unread int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return cap(p.buf), len(p.buf) - p.roff
}

// TestPipeBufferReuse streams 4 MiB through a pipe in uneven writes
// from one goroutine while another reads it in uneven reads, so
// appends land behind unread bytes, slide them down, grow the buffer,
// and wait on the socket-buffer bound. The stream must arrive intact,
// no write may leave more than sockBuf plus itself unread, and the
// pipe's storage must never outgrow maxKeptBuf.
func TestPipeBufferReuse(t *testing.T) {
	n := New(1)
	cc, sc := accept1(t, n, "edge", "dc")
	p := cc.(*conn).wr
	sc.SetReadDeadline(time.Now().Add(10 * time.Second)) // a lost byte fails, not hangs
	cc.SetWriteDeadline(time.Now().Add(10 * time.Second))
	want := make([]byte, 4<<20)
	for i := range want {
		want[i] = byte(i * 7 / 5)
	}
	writes := []int{1, 100, 5000, 70_000, 300_000}
	type peak struct {
		capacity, over int
		err            error
	}
	wrote := make(chan peak, 1)
	go func() {
		var pk peak
		for i, w := 0, 0; w < len(want); i++ {
			k := min(writes[i%len(writes)], len(want)-w)
			if _, pk.err = cc.Write(want[w : w+k]); pk.err != nil {
				break
			}
			w += k
			c, u := pipeStorage(p)
			pk.capacity, pk.over = max(pk.capacity, c), max(pk.over, u-k-sockBuf)
		}
		wrote <- pk
	}()
	got := make([]byte, 0, len(want))
	reads := []int{3, 7000, 50_000, 150_000}
	for i := 0; len(got) < len(want); i++ {
		b := make([]byte, min(reads[i%len(reads)], len(want)-len(got)))
		if _, err := io.ReadFull(sc, b); err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
	}
	pk := <-wrote
	if pk.err != nil {
		t.Fatal(pk.err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stream damaged on its way through the pipe's buffer")
	}
	if pk.over > 0 || pk.capacity > maxKeptBuf {
		t.Fatalf("a write left %d bytes beyond the bound plus itself unread, and the buffer grew to %d bytes; want none beyond, and <= %d", pk.over, pk.capacity, maxKeptBuf)
	}
	if kept, _ := pipeStorage(p); kept > maxKeptBuf {
		t.Fatalf("the drained pipe keeps %d bytes, want <= %d", kept, maxKeptBuf)
	}
}

// TestOversizeWriteCrossesIdlePipe: a write of twice maxKeptBuf into
// an empty pipe goes through whole, the next write waits for the
// reader, and once the reader drains the pipe it lets the oversized
// buffer go rather than keep it for the connection's life.
func TestOversizeWriteCrossesIdlePipe(t *testing.T) {
	n := New(1)
	cc, sc := accept1(t, n, "edge", "dc")
	p := cc.(*conn).wr
	big := bytes.Repeat([]byte{7}, 2*maxKeptBuf)
	cc.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if k, err := cc.Write(big); err != nil || k != len(big) {
		t.Fatalf("a %d-byte write into an empty pipe: %d, %v", len(big), k, err)
	}
	cc.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := cc.Write([]byte{1}); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a write behind %d unread bytes: %v, want it to wait out its deadline", len(big), err)
	}
	grown, _ := pipeStorage(p)
	got := make([]byte, len(big))
	if _, err := io.ReadFull(sc, got); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("read back %d bytes: %v", len(got), err)
	}
	if kept, unread := pipeStorage(p); grown <= maxKeptBuf || kept > maxKeptBuf || unread != 0 {
		t.Fatalf("buffer grew to %d bytes and keeps %d (%d unread) drained, want > %d then <= %d", grown, kept, unread, maxKeptBuf, maxKeptBuf)
	}
}

// TestBlockedWriterReleased fills a pipe past its bound, blocks a
// writer behind it, and releases the writer each way it can be: a
// read that brings the unread bytes down to the bound (the write then
// lands), its write deadline, a Close of either end, and a sever. Each
// release returns the writer with the matching result, and no
// goroutine is left behind.
func TestBlockedWriterReleased(t *testing.T) {
	cases := []struct {
		name    string
		release func(n *Network, cc, sc net.Conn)
		want    error // nil: the write lands
	}{
		{"read", func(_ *Network, _, sc net.Conn) {
			io.ReadFull(sc, make([]byte, 2))
		}, nil},
		{"write deadline", func(_ *Network, cc, _ net.Conn) {
			cc.SetWriteDeadline(time.Now().Add(10 * time.Millisecond))
		}, os.ErrDeadlineExceeded},
		{"close", func(_ *Network, cc, _ net.Conn) { cc.Close() }, io.ErrClosedPipe},
		{"peer close", func(_ *Network, _, sc net.Conn) { sc.Close() }, io.ErrClosedPipe},
		{"sever", func(n *Network, _, _ net.Conn) { n.Partition("edge", "dc") }, errSevered},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			n := New(1)
			cc, sc := accept1(t, n, "edge", "dc")
			if _, err := cc.Write(make([]byte, sockBuf+1)); err != nil {
				t.Fatal(err)
			}
			wrote := make(chan error, 1)
			go func() {
				_, err := cc.Write([]byte("next"))
				wrote <- err
			}()
			select {
			case err := <-wrote:
				t.Fatalf("a write behind %d unread bytes returned %v, want it to wait", sockBuf+1, err)
			case <-time.After(50 * time.Millisecond):
			}
			tc.release(n, cc, sc)
			select {
			case err := <-wrote:
				if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
					t.Fatalf("released writer returned %v, want %v", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the writer was not released")
			}
			if tc.want == nil {
				got := make([]byte, sockBuf+3)
				sc.SetReadDeadline(time.Now().Add(10 * time.Second))
				if _, err := io.ReadFull(sc, got); err != nil || string(got[sockBuf-1:]) != "next" {
					t.Fatalf("after the release the stream reads %q, %v; want the write behind the backlog", got[sockBuf-1:], err)
				}
			}
			cc.Close()
			sc.Close()
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the release, %d before", runtime.NumGoroutine(), before)
				}
			}
		})
	}
}

// TestSockBufFitsKeptStorage: the bound plus one streamed record fits
// the storage a pipe keeps, so a burst of records of walog.ChunkBytes
// behind a slow reader slides through one buffer instead of regrowing
// it, and the pipe's constants are the ones its doc says.
func TestSockBufFitsKeptStorage(t *testing.T) {
	if maxKeptBuf != walog.MaxKeptBytes {
		t.Fatalf("maxKeptBuf is %d, walog.MaxKeptBytes %d", maxKeptBuf, walog.MaxKeptBytes)
	}
	const record = walog.ChunkBytes + walog.RecordHeaderLen + 64 // a chunk's samples, framing and layout header
	if sockBuf+record > maxKeptBuf {
		t.Fatalf("the bound %d plus a %d-byte record exceeds the %d bytes a pipe keeps", sockBuf, record, maxKeptBuf)
	}
	n := New(1)
	cc, sc := accept1(t, n, "edge", "dc")
	p := cc.(*conn).wr
	cc.SetWriteDeadline(time.Now().Add(10 * time.Second))
	sc.SetReadDeadline(time.Now().Add(10 * time.Second))
	const records = 64
	done := make(chan error, 1)
	go func() {
		b := make([]byte, 4096)
		for left := records * record; left > 0; {
			k, err := sc.Read(b[:min(len(b), left)])
			if err != nil {
				done <- err
				return
			}
			left -= k
		}
		done <- nil
	}()
	var storage []*byte // the distinct buffers the pipe wrote into
	rec := make([]byte, record)
	for i := 0; i < records; i++ {
		if _, err := cc.Write(rec); err != nil {
			t.Fatal(err)
		}
		p.mu.Lock()
		if c := cap(p.buf); c > maxKeptBuf {
			p.mu.Unlock()
			t.Fatalf("record %d grew the pipe to %d bytes, beyond the %d it keeps", i, c, maxKeptBuf)
		}
		if at := &p.buf[:cap(p.buf)][cap(p.buf)-1]; len(storage) == 0 || storage[len(storage)-1] != at {
			storage = append(storage, at)
		}
		p.mu.Unlock()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Doubling from one record's size reaches maxKeptBuf in two steps;
	// nothing after that may allocate again.
	if len(storage) > 3 {
		t.Fatalf("%d records of %d bytes went through %d buffers, want at most 3", records, record, len(storage))
	}
}

// TestFaultsOnInPlaceAppend arms a corruption that lands in a write
// appended behind unread bytes: the fault still hits its stream
// offset.
func TestFaultsOnInPlaceAppend(t *testing.T) {
	n := New(3)
	cc, sc := accept1(t, n, "edge", "dc")
	// Flip a bit at 14, which lands in the second write.
	if err := n.CorruptNext("edge", "dc", 14); err != nil {
		t.Fatal(err)
	}
	cc.Write([]byte("01234567"))
	head := make([]byte, 2)
	if _, err := io.ReadFull(sc, head); err != nil || string(head) != "01" {
		t.Fatalf("head %q, %v", head, err)
	}
	cc.Write([]byte("89abcdef")) // appended behind "234567", unread
	got := make([]byte, 14)
	if _, err := io.ReadFull(sc, got); err != nil {
		t.Fatal(err)
	}
	want := []byte("23456789abcdef")
	for i := range got {
		if (got[i] != want[i]) != (i == 12) {
			t.Fatalf("got %q, want %q with only 'e' (stream offset 14) flipped", got, want)
		}
	}
	if d := got[12] ^ want[12]; d&(d-1) != 0 {
		t.Fatalf("offset 14 changed by %08b, want one bit", d)
	}
}
