package core

import (
	"bytes"
	"encoding/gob"
	"sort"

	"repro/internal/vision"
)

// Datacenter is the cloud side of FilterForward: it receives uploaded
// event segments per application and can demand-fetch additional
// context video from an edge node's local archive.
type Datacenter struct {
	uploads map[string][]Upload // MC name -> segments
	// count and bits total every held upload, kept as they arrive so
	// Totals costs nothing per upload. They are derived, not encoded.
	count int
	bits  int64
}

// NewDatacenter constructs an empty receiver.
func NewDatacenter() *Datacenter {
	return &Datacenter{uploads: make(map[string][]Upload)}
}

// Receive accepts one upload.
func (d *Datacenter) Receive(u Upload) {
	d.uploads[u.MCName] = append(d.uploads[u.MCName], u)
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
	for name, us := range o.uploads {
		key := prefix + name
		for _, u := range us {
			u.MCName = key
			d.uploads[key] = append(d.uploads[key], u)
		}
	}
	d.count += o.count
	d.bits += o.bits
}

// Totals returns how many uploads the receiver holds and their bits,
// across every application.
func (d *Datacenter) Totals() (uploads int, bits int64) {
	return d.count, d.bits
}

// GobEncode encodes the received uploads, so a receiver can be part of
// a gob-encoded value (the fleet controller's snapshots and move-in
// records). Only the accounting fields take space on a controller:
// its uploads carry no Frames and no Delay, and gob skips zero fields.
func (d *Datacenter) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(d.uploads)
	return buf.Bytes(), err
}

// GobDecode replaces the receiver's uploads with the encoded ones and
// recounts its totals. gob allocates a top-level map even for an empty
// ledger, so Receive can write into the result.
func (d *Datacenter) GobDecode(data []byte) error {
	*d = Datacenter{}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&d.uploads); err != nil {
		return err
	}
	for _, us := range d.uploads {
		d.count += len(us)
		for _, u := range us {
			d.bits += u.Bits
		}
	}
	return nil
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
// start frame.
func (d *Datacenter) Uploads(mcName string) []Upload {
	us := append([]Upload(nil), d.uploads[mcName]...)
	sort.Slice(us, func(i, j int) bool { return us[i].Start < us[j].Start })
	return us
}

// TotalBits returns the bits received for an application.
func (d *Datacenter) TotalBits(mcName string) int64 {
	var total int64
	for _, u := range d.uploads[mcName] {
		total += u.Bits
	}
	return total
}

// PredictedLabels reconstructs the per-frame relevance prediction an
// application observes: frame i is predicted positive iff some
// received segment covers it. This is what the paper's event F1 is
// computed over.
func (d *Datacenter) PredictedLabels(mcName string, totalFrames int) []bool {
	labels := make([]bool, totalFrames)
	for _, u := range d.uploads[mcName] {
		for f := u.Start; f < u.End && f < totalFrames; f++ {
			if f >= 0 {
				labels[f] = true
			}
		}
	}
	return labels
}

// Events groups received segments by event ID, returning the set of
// distinct events and their covered frame ranges.
func (d *Datacenter) Events(mcName string) map[uint64][]Upload {
	out := make(map[uint64][]Upload)
	for _, u := range d.uploads[mcName] {
		out[u.EventID] = append(out[u.EventID], u)
	}
	return out
}

// DemandFetch retrieves frames [start, end) from the edge node's
// archive (its FrameSource), re-encoded at the given bitrate, and
// accounts the transfer against the uplink. This is the §3.2
// demand-fetch path for context around matched segments.
func (d *Datacenter) DemandFetch(edge *EdgeNode, src FrameSource, start, end int, bitrate float64) ([]*vision.Image, int64, error) {
	return edge.FetchArchive(src, start, end, bitrate)
}
