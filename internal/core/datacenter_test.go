package core

import (
	"reflect"
	"testing"

	"repro/internal/vision"
)

// TestUploadsKeepArrivalOrderOnEqualStarts: segments of one
// application that start on the same frame come back in the order they
// arrived. Equal starts do occur: after a fresh hello resets an edge's
// sequence, the new incarnation numbers its frames from zero again.
// Sixty-four segments take the sort past its insertion-sort cutoff,
// where an unstable sort reorders ties.
func TestUploadsKeepArrivalOrderOnEqualStarts(t *testing.T) {
	dc := NewDatacenter()
	for i := range 64 {
		start := 10 * ((i * 7) % 4) // four starts, interleaved
		dc.Receive(Upload{MCName: "cam0/mc", EventID: uint64(i + 1), Start: start, End: start + 5, Bits: 100})
	}
	us := dc.Uploads("cam0/mc")
	if len(us) != 64 {
		t.Fatalf("%d uploads, want 64", len(us))
	}
	for i := 1; i < len(us); i++ {
		a, b := us[i-1], us[i]
		if a.Start > b.Start || (a.Start == b.Start && a.EventID > b.EventID) {
			t.Fatalf("uploads %d and %d out of order: %+v then %+v", i-1, i, a, b)
		}
	}
}

// TestDatacenterKeepsWhatItAccounts: a received upload comes back with
// its MC name, event, range, bits and Final flag, and without Delay or
// Frames; Absorb keeps arrival order under the prefixed name and adds
// the totals.
func TestDatacenterKeepsWhatItAccounts(t *testing.T) {
	dc := NewDatacenter()
	first := Upload{MCName: "cam0/mc", EventID: 7, Start: 3, End: 9, Bits: 1200, Final: true}
	withExtras := first
	withExtras.Delay, withExtras.Frames = 0.25, []*vision.Image{vision.NewImage(2, 2)}
	dc.Receive(withExtras)
	dc.Receive(Upload{MCName: "cam0/mc", EventID: 8, Start: 1, End: 2, Bits: 300})
	dc.Receive(Upload{MCName: "cam1/mc", EventID: 1, Start: 0, End: 4, Bits: 50})
	if got := dc.Uploads("cam0/mc"); len(got) != 2 || !reflect.DeepEqual(got[1], first) || got[0].EventID != 8 {
		t.Fatalf("uploads %+v, want the EventID-8 segment, then %+v", got, first)
	}
	if n, bits := dc.Totals(); n != 3 || bits != 1550 {
		t.Fatalf("totals %d uploads, %d bits; want 3, 1550", n, bits)
	}
	if ev := dc.Events("cam0/mc"); len(ev) != 2 || !reflect.DeepEqual(ev[7], []Upload{first}) {
		t.Fatalf("events %+v", ev)
	}

	merged := NewDatacenter()
	merged.Absorb("edge-1/", dc)
	merged.Absorb("edge-2/", dc)
	if got := merged.KnownApplications(); !reflect.DeepEqual(got, []string{"edge-1/cam0/mc", "edge-1/cam1/mc", "edge-2/cam0/mc", "edge-2/cam1/mc"}) {
		t.Fatalf("merged applications %v", got)
	}
	want := first
	want.MCName = "edge-2/cam0/mc"
	if got := merged.Uploads("edge-2/cam0/mc"); len(got) != 2 || !reflect.DeepEqual(got[1], want) {
		t.Fatalf("merged uploads %+v, want %+v last", got, want)
	}
	if n, bits := merged.Totals(); n != 6 || bits != 3100 {
		t.Fatalf("merged totals %d uploads, %d bits; want 6, 3100", n, bits)
	}
}

// TestWalkRestoreRebuildsLedger: restoring what Walk visits rebuilds
// the ledger exactly, totals included, and Restore refuses an
// application that already has an entry.
func TestWalkRestoreRebuildsLedger(t *testing.T) {
	dc := NewDatacenter()
	for i := range 10 {
		dc.Receive(Upload{MCName: []string{"a", "b", "c"}[i%3], EventID: uint64(i), Start: 20 - i, End: 22 - i, Bits: int64(i * 10), Final: i%2 == 0})
	}
	type app struct {
		name string
		ups  []Upload
	}
	var apps []app
	dc.Walk(func(name string, n int) {
		apps = append(apps, app{name: name, ups: make([]Upload, 0, n)})
	}, func(u Upload) {
		if u.MCName != "" {
			t.Fatalf("walked upload carries MC name %q", u.MCName)
		}
		a := &apps[len(apps)-1]
		a.ups = append(a.ups, u)
	})
	if len(apps) != dc.Applications() {
		t.Fatalf("walked %d applications, Applications says %d", len(apps), dc.Applications())
	}
	back := NewDatacenter()
	for _, a := range apps {
		i := 0
		if !back.Restore(a.name, len(a.ups), func() Upload { i++; return a.ups[i-1] }) {
			t.Fatalf("restore of %q refused", a.name)
		}
	}
	if !reflect.DeepEqual(back, dc) {
		t.Fatalf("restored ledger differs:\n got  %+v\n want %+v", back, dc)
	}
	if back.Restore("a", 0, nil) {
		t.Fatal("restore over an application with uploads accepted")
	}
}
