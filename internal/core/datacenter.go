package core

import (
	"cmp"
	"slices"
	"sort"
)

// Datacenter is the cloud side of FilterForward: it receives uploaded
// event segments per application. Context video around them is
// demand-fetched from the edge node's archive (EdgeNode.ReadFetch).
//
// It keeps what it accounts and nothing else: per upload the event ID,
// frame range, bits and Final flag, 40 bytes under the application's
// name, which is stored once. An upload's Delay and Frames are not
// kept, so the uploads it returns carry neither; read them from the
// uploads the edge node returned.
type Datacenter struct {
	uploads map[string][]entry // MC name -> segments, in arrival order
	// count and bits total every held upload, kept as they arrive so
	// Totals costs nothing per upload.
	count int
	bits  int64
}

// entry is one received upload as a Datacenter holds it: an Upload
// without its MC name (the map key), Delay and Frames.
type entry struct {
	eventID    uint64
	start, end int
	bits       int64
	final      bool
}

func (e entry) upload(mcName string) Upload {
	return Upload{MCName: mcName, EventID: e.eventID, Start: e.start, End: e.end, Bits: e.bits, Final: e.final}
}

// NewDatacenter constructs an empty receiver.
func NewDatacenter() *Datacenter {
	return &Datacenter{uploads: make(map[string][]entry)}
}

// Receive accepts one upload.
func (d *Datacenter) Receive(u Upload) {
	d.uploads[u.MCName] = append(d.uploads[u.MCName], entry{u.EventID, u.Start, u.End, u.Bits, u.Final})
	d.count++
	d.bits += u.Bits
}

// ReceiveAll accepts a batch of uploads.
func (d *Datacenter) ReceiveAll(us []Upload) {
	for _, u := range us {
		d.Receive(u)
	}
}

// Absorb accepts every upload another receiver holds, in its order,
// under MC names prefixed with prefix (the fleet controller merges its
// per-node ledgers into one "node/stream/mc" view this way).
func (d *Datacenter) Absorb(prefix string, o *Datacenter) {
	for name, es := range o.uploads {
		key := prefix + name
		d.uploads[key] = append(d.uploads[key], es...)
	}
	d.count += o.count
	d.bits += o.bits
}

// Totals returns how many uploads the receiver holds and their bits,
// across every application.
func (d *Datacenter) Totals() (uploads int, bits int64) {
	return d.count, d.bits
}

// Applications returns how many applications Walk visits.
func (d *Datacenter) Applications() int { return len(d.uploads) }

// Walk visits the ledger in place, for an encoder: each application,
// in no set order, with its upload count, then each of its uploads in
// arrival order, as an Upload without MC name, Delay or Frames.
func (d *Datacenter) Walk(app func(mcName string, uploads int), upload func(Upload)) {
	for name, es := range d.uploads {
		app(name, len(es))
		for _, e := range es {
			upload(e.upload(""))
		}
	}
}

// Restore gives mcName the n uploads next returns, in order (their
// MCName is ignored), sizing its segments once: a decoder rebuilds the
// ledger Walk visited this way. It restores nothing and returns false
// when mcName already has an entry.
func (d *Datacenter) Restore(mcName string, n int, next func() Upload) bool {
	if _, ok := d.uploads[mcName]; ok {
		return false
	}
	es := make([]entry, n)
	for i := range es {
		u := next()
		es[i] = entry{u.EventID, u.Start, u.End, u.Bits, u.Final}
		d.bits += u.Bits
	}
	d.uploads[mcName] = es
	d.count += n
	return true
}

// KnownApplications returns the sorted MC names that have received at
// least one upload.
func (d *Datacenter) KnownApplications() []string {
	names := make([]string, 0, len(d.uploads))
	for name := range d.uploads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Uploads returns the segments received for an application, ordered by
// start frame; segments that start on the same frame keep their
// arrival order.
func (d *Datacenter) Uploads(mcName string) []Upload {
	es := d.uploads[mcName]
	us := make([]Upload, len(es))
	for i, e := range es {
		us[i] = e.upload(mcName)
	}
	slices.SortStableFunc(us, func(a, b Upload) int { return cmp.Compare(a.Start, b.Start) })
	return us
}

// TotalBits returns the bits received for an application.
func (d *Datacenter) TotalBits(mcName string) int64 {
	var total int64
	for _, e := range d.uploads[mcName] {
		total += e.bits
	}
	return total
}

// PredictedLabels reconstructs the per-frame relevance prediction an
// application observes: frame i is predicted positive iff some
// received segment covers it. This is what the paper's event F1 is
// computed over.
func (d *Datacenter) PredictedLabels(mcName string, totalFrames int) []bool {
	labels := make([]bool, totalFrames)
	for _, e := range d.uploads[mcName] {
		for f := max(e.start, 0); f < e.end && f < totalFrames; f++ {
			labels[f] = true
		}
	}
	return labels
}

// Events groups received segments by event ID, returning the set of
// distinct events and their covered frame ranges.
func (d *Datacenter) Events(mcName string) map[uint64][]Upload {
	out := make(map[uint64][]Upload)
	for _, e := range d.uploads[mcName] {
		out[e.eventID] = append(out[e.eventID], e.upload(mcName))
	}
	return out
}
