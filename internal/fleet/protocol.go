// Package fleet is FilterForward's control plane: a datacenter-side
// controller and an edge-side agent speaking the bidirectional v2
// protocol layered on internal/transport's framing. It turns the §3.2
// deployment story into a client/server system — datacenter
// applications deploy microclassifiers to connected edge nodes over
// the wire, receive their event uploads attributed per session, and
// demand-fetch archived context video from the edge's local store.
//
// A v2 session begins with the transport header (magic + Version2)
// from the edge, followed by a Hello record naming the node and its
// stream inventory. The controller answers with its own header and a
// Welcome record carrying the session ID. From then on both sides
// stream records: the edge sends uploads, heartbeats, acks, and fetch
// responses; the controller sends deploy/undeploy and fetch requests.
// Request/response pairing uses per-session sequence numbers.
package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// StreamInfo describes one camera stream an edge node hosts,
// advertised in the session hello.
type StreamInfo struct {
	// Name identifies the stream on the node (unique per node).
	Name string
	// Width, Height are the working-scale frame dimensions.
	Width, Height int
	// FPS is the stream frame rate.
	FPS int
}

// Hello is the first record of a v2 session (edge → datacenter).
type Hello struct {
	// Node is the edge node's name (unique per fleet deployment).
	Node string
	// Streams is the node's stream inventory.
	Streams []StreamInfo
	// Resume marks a reconnect after a lost session. The controller
	// evicts any stale session still registered for the node and
	// reconciles deployed-MC state against its intent.
	Resume bool
	// DeployGen is the highest deploy generation the node has applied
	// (zero for a fresh node). A resume whose generation trails the
	// controller's intent triggers reconciliation.
	DeployGen uint64
	// Deployed is the node's per-stream deployed MC inventory, the
	// ground truth reconciliation diffs against intent (a node that
	// restarted reports empty sets even if its generation looks
	// current).
	Deployed map[string][]string
	// HeartbeatEvery is the node's heartbeat interval (non-positive:
	// heartbeats disabled). The controller derives its liveness window
	// from it: HeartbeatMiss consecutive silent intervals evict the
	// session.
	HeartbeatEvery time.Duration
}

// Welcome acknowledges a hello (datacenter → edge).
type Welcome struct {
	// SessionID is the controller-assigned session identifier.
	SessionID uint64
	// DeployGen is the controller's current deploy generation for the
	// node, so a fresh edge starts in sync.
	DeployGen uint64
	// Shard is the controller shard that owns the node's session
	// (always 0 on an unsharded controller).
	Shard int
}

// DeployRequest ships a microclassifier to an edge stream
// (datacenter → edge). MC is the filter.(*MC).Save stream — the
// architecture spec, the nn serializer's weight records, and the
// input-normalization statistics — exactly what the paper's
// application developer supplies (§3.2).
type DeployRequest struct {
	Seq       uint64
	Stream    string
	MC        []byte
	Threshold float32
	// Gen is the controller's deploy generation after this request
	// (zero for requests outside intent tracking, e.g. direct session
	// deploys). The edge remembers the highest generation applied and
	// reports it in resume hellos.
	Gen uint64
	// Version echoes the MC artifact's model version (filter.Spec
	// .Version, already inside MC) for edge-side logging without a
	// second decode. Zero for an unversioned artifact.
	Version uint64
}

// UndeployRequest removes a deployed microclassifier
// (datacenter → edge). The edge drains the MC's pipeline tail first,
// so its final uploads still arrive before the ack.
type UndeployRequest struct {
	Seq    uint64
	Stream string
	MCName string
	// Gen is the controller's deploy generation after this request
	// (see DeployRequest.Gen).
	Gen uint64
}

// Ack answers a deploy or undeploy request (edge → datacenter).
// Err is empty on success.
type Ack struct {
	Seq uint64
	Err string
}

// FetchRequest asks the edge to re-encode frames [Start, End) of a
// stream's local archive at Bitrate and account the transfer against
// its uplink (datacenter → edge) — the §3.2 demand-fetch path. With
// IncludeData the edge also streams the decoder-side reconstructions
// back as FetchData records ahead of the response trailer.
type FetchRequest struct {
	Seq         uint64
	Stream      string
	Start, End  int
	Bitrate     float64
	IncludeData bool
}

// FrameData is one reconstructed frame on the wire.
type FrameData struct {
	W, H int
	Pix  []float32
}

// FetchData carries a chunk of demand-fetched frames (edge →
// datacenter). A fetch's data records arrive in frame order, all
// before its FetchResponse trailer; chunking keeps each record under
// the transport's record size limit.
//
// Like Heartbeat, its payload is a fixed binary layout rather than
// gob, so a fetch's megabytes of samples are copied, not reflected
// over one value at a time:
//
//	uvarint Seq | Stream | count | count × (uvarint W | uvarint H |
//	uvarint len(Pix) | len(Pix) × float32, 4 bytes little-endian)
//
// Samples cross bit for bit, NaN payloads included. Decoding refuses
// truncated input, trailing bytes, a frame or sample count the
// remaining bytes could not hold, and a frame whose W×H×3 is not its
// sample count — checked by division, so no choice of dimensions can
// wrap the product — and leaves the record untouched when it does.
type FetchData struct {
	Seq    uint64
	Stream string
	Frames []FrameData
}

// minFrameBytes is the smallest encoded frame: W, H and the sample
// count take a byte each.
const minFrameBytes = 3

// AppendBinary appends the record's binary layout to b, growing b once
// to the record's size.
func (fd FetchData) AppendBinary(b []byte) ([]byte, error) {
	size := 3*binary.MaxVarintLen64 + len(fd.Stream)
	for _, f := range fd.Frames {
		size += 3*binary.MaxVarintLen64 + 4*len(f.Pix)
	}
	b = slices.Grow(b, size)
	b = binary.AppendUvarint(b, fd.Seq)
	b = transport.AppendString(b, fd.Stream)
	b = binary.AppendUvarint(b, uint64(len(fd.Frames)))
	for _, f := range fd.Frames {
		b = binary.AppendUvarint(b, uint64(f.W))
		b = binary.AppendUvarint(b, uint64(f.H))
		b = transport.AppendFloat32s(b, f.Pix)
	}
	return b, nil
}

// UnmarshalBinary decodes exactly one record's binary layout.
func (fd *FetchData) UnmarshalBinary(data []byte) error {
	d := transport.NewLayoutReader(data)
	out := FetchData{Seq: d.Uvarint(), Stream: d.String()}
	if n := d.Count(minFrameBytes); n > 0 {
		out.Frames = make([]FrameData, 0, n)
		for ; n > 0; n-- {
			w, h, pix := d.Uvarint(), d.Uvarint(), d.Float32s()
			// w ≤ len/3 keeps 3·w from wrapping; then w·h·3 = len
			// holds exactly when h = len/(3·w) with nothing left over.
			if m := uint64(len(pix)); w == 0 || h == 0 || w > m/3 || m%(3*w) != 0 || h != m/(3*w) {
				d.Fail(fmt.Errorf("a %dx%d frame with %d samples", w, h, len(pix)))
				break
			}
			out.Frames = append(out.Frames, FrameData{W: int(w), H: int(h), Pix: pix})
		}
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("fetch data: %w", err)
	}
	*fd = out
	return nil
}

// FetchResponse answers a fetch request with the coded-segment
// accounting (edge → datacenter). Pixel data travels in the preceding
// FetchData records when the request asked for it; accounting-only
// fetches (IncludeData false) ship no pixels at all.
type FetchResponse struct {
	Seq        uint64
	Stream     string
	Start, End int
	Bits       int64
	Err        string
}

// StreamStats is one stream's pipeline counters as carried in a
// heartbeat, a wire-stable subset of core.Stats.
type StreamStats struct {
	Frames         int
	Uploads        int
	UploadedFrames int
	UploadedBits   int64
	// DemandFetchBits and DemandFetches count demand-fetched archive
	// traffic, kept separate from the filtering pipeline's uploads.
	DemandFetchBits int64
	DemandFetches   int
	MaxUplinkDelay  float64
	// ArchivedBits is the codec-model cost of the continuous local
	// archive; the remaining Archive* fields describe the stream's
	// persistent on-disk store (zero when archiving is disabled).
	ArchivedBits           int64
	ArchiveBytes           int64
	ArchiveSegments        int
	ArchiveEvictedSegments int
	ArchiveEvictedBytes    int64
}

// Heartbeat carries periodic per-stream stats (edge → datacenter),
// plus node-level latency histograms when the agent runs with an
// observer. The histograms are node-wide (streams share one observer),
// so the rollup side must attribute them once per node, not once per
// stream. Zero-count histograms mean "not instrumented".
//
// Like transport.UploadRecord, its payload is a fixed binary layout
// rather than gob: the fields in declaration order, counts and
// unsigned integers as uvarints, signed integers as zigzag varints,
// strings as a uvarint length and the bytes.
//
//	Streams    count | count × (name | the 12 StreamStats fields in
//	           order, MaxUplinkDelay as its 8 IEEE 754 bytes)
//	Extract, MCPush, QueueWait, UploadRTT, each:
//	           Count | Sum | Max | count | count × (index delta | bucket)
//	Scores     count | count × (stream | count × (MC | Count | Passes |
//	           Sum | SumSq | 32 bins))
//	ScoreVersions: count | count × (stream | count × (MC | version))
//	PendingUploads
//
// A histogram sends only its nonzero buckets, each index as the delta
// from the previous one (the first from -1), so in practice a handful
// of the 40. A map of no entries, nil or not, is a count of 0 and
// decodes to a nil map; inner maps too. Decoding refuses truncated
// input, trailing bytes, an entry count the remaining bytes could not
// hold, a duplicate map key, and a bucket index that does not increase
// or reaches obs.NumBuckets, and leaves the heartbeat untouched when it
// does.
//
// An agent that still sends gob heartbeats is refused at the
// handshake: it announces the previous wire magic, which
// transport.ReadHeader rejects before any record is read. No gob
// heartbeat is decoded, so no field of one is ever zeroed or guessed.
type Heartbeat struct {
	Streams map[string]StreamStats
	// Extract, MCPush, QueueWait, and UploadRTT are the node's
	// base-DNN extraction, MC classification, scheduler queue-wait,
	// and upload send-to-ack latency histograms, cumulative since the
	// agent started. Snapshots merge exactly, so the fleet rollup
	// reports true fleet-wide quantiles.
	Extract   obs.HistSnapshot
	MCPush    obs.HistSnapshot
	QueueWait obs.HistSnapshot
	UploadRTT obs.HistSnapshot
	// Scores carries each stream's per-MC cumulative score sketches
	// (stream → MC name → sketch since deploy) — the semantic signal
	// the controller's drift detector consumes. Cumulative, like the
	// latency histograms: the controller derives recent windows by
	// subtracting the previous heartbeat's snapshot. Nil means no
	// deployed MCs.
	Scores map[string]map[string]obs.SketchSnapshot
	// ScoreVersions carries the deployed model version behind each
	// sketch in Scores (stream → MC name → filter.Spec.Version). The
	// drift detector keys redeploy resets on version changes; without
	// a version the controller falls back to cumulative-count
	// regression.
	ScoreVersions map[string]map[string]uint64
	// PendingUploads is the node-level count of uploads buffered
	// awaiting a controller ack — the edge's backlog, an SLO input on
	// the datacenter side (a growing backlog means the uplink or the
	// controller is falling behind the event rate).
	PendingUploads int
}

// Minimum encoded entry sizes, which bound the entry counts a
// heartbeat decoder accepts: every string and varint takes at least a
// byte.
const (
	minStreamBytes = 1 + 11 + 8         // name, 11 varints, MaxUplinkDelay
	minSketchBytes = 4 + obs.SketchBins // Count, Passes, Sum, SumSq, bins
)

// AppendBinary appends the heartbeat's binary layout to b, growing b
// once, to the bound maxSize computes.
func (hb Heartbeat) AppendBinary(b []byte) ([]byte, error) {
	b = slices.Grow(b, hb.maxSize())
	b = binary.AppendUvarint(b, uint64(len(hb.Streams)))
	for name, st := range hb.Streams {
		b = transport.AppendString(b, name)
		b = binary.AppendVarint(b, int64(st.Frames))
		b = binary.AppendVarint(b, int64(st.Uploads))
		b = binary.AppendVarint(b, int64(st.UploadedFrames))
		b = binary.AppendVarint(b, st.UploadedBits)
		b = binary.AppendVarint(b, st.DemandFetchBits)
		b = binary.AppendVarint(b, int64(st.DemandFetches))
		b = transport.AppendFloat64(b, st.MaxUplinkDelay)
		b = binary.AppendVarint(b, st.ArchivedBits)
		b = binary.AppendVarint(b, st.ArchiveBytes)
		b = binary.AppendVarint(b, int64(st.ArchiveSegments))
		b = binary.AppendVarint(b, int64(st.ArchiveEvictedSegments))
		b = binary.AppendVarint(b, st.ArchiveEvictedBytes)
	}
	for _, h := range [...]*obs.HistSnapshot{&hb.Extract, &hb.MCPush, &hb.QueueWait, &hb.UploadRTT} {
		b = appendHist(b, h)
	}
	b = appendNested(b, hb.Scores, appendSketch)
	b = appendNested(b, hb.ScoreVersions, binary.AppendUvarint)
	return binary.AppendVarint(b, int64(hb.PendingUploads)), nil
}

// maxSize bounds the heartbeat's encoded size: each stream and
// histogram bucket at its widest, each sketch's moments at their width
// and its bins at the width of its largest.
func (hb *Heartbeat) maxSize() int {
	const v = binary.MaxVarintLen64
	n := 4*v + v // the counts of the three maps, PendingUploads
	for name := range hb.Streams {
		n += v + len(name) + 11*v + 8
	}
	for _, h := range [...]*obs.HistSnapshot{&hb.Extract, &hb.MCPush, &hb.QueueWait, &hb.UploadRTT} {
		n += 4 * v
		for _, c := range h.Buckets {
			if c != 0 {
				n += 2 * v
			}
		}
	}
	for stream, inner := range hb.Scores {
		n += 2*v + len(stream)
		for mc, s := range inner {
			top := uint64(0)
			for _, c := range s.Bins {
				top = max(top, c)
			}
			n += v + len(mc) + uvarintLen(s.Count) + uvarintLen(s.Passes) + varintLen(s.Sum) + varintLen(s.SumSq) + obs.SketchBins*uvarintLen(top)
		}
	}
	for stream, inner := range hb.ScoreVersions {
		n += 2*v + len(stream)
		for mc := range inner {
			n += v + len(mc) + v
		}
	}
	return n
}

// uvarintLen is the number of bytes x takes as a uvarint, varintLen as
// a zigzag varint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
func varintLen(x int64) int   { return uvarintLen(uint64(x)<<1 ^ uint64(x>>63)) }

// UnmarshalBinary decodes exactly one heartbeat's binary layout: the
// same parser a session runs in place (decode), run on a fresh target
// with a fresh decoder.
func (hb *Heartbeat) UnmarshalBinary(data []byte) error {
	var out Heartbeat
	if err := out.decode(data, new(hbDecoder)); err != nil {
		return err
	}
	*hb = out
	return nil
}

// decode parses one heartbeat's layout into hb in place. Every map is
// refilled: an entry the layout holds overwrites the one under its key
// (a sketch is stored out of line, so overwriting reuses its storage),
// a key the layout lacks is deleted, and a map of no entries becomes
// nil. Every histogram is zeroed before its buckets are read. Names
// come from dec's intern table, so a heartbeat like the one hb held
// decodes without allocating. On an error hb is left half-written:
// UnmarshalBinary decodes into a fresh value and a session into its
// spare, so neither exposes one.
func (hb *Heartbeat) decode(data []byte, dec *hbDecoder) error {
	if dec.names == nil || len(dec.names) > maxInternedNames {
		dec.names = make(map[string]*internedName)
	}
	// The value readers are called through function values, so the
	// layout reader escapes: the decoder lends its own.
	d := &dec.d
	*d = transport.NewLayoutReader(data)
	defer func() { *d = transport.LayoutReader{} }() // keep no reference to data

	n := d.Count(minStreamBytes)
	var scope uint64
	hb.Streams, scope = begin(dec, hb.Streams, n)
	for range n {
		name := dec.name(d.Bytes())
		st := StreamStats{
			Frames:                 d.Int(),
			Uploads:                d.Int(),
			UploadedFrames:         d.Int(),
			UploadedBits:           d.Varint(),
			DemandFetchBits:        d.Varint(),
			DemandFetches:          d.Int(),
			MaxUplinkDelay:         d.Float64(),
			ArchivedBits:           d.Varint(),
			ArchiveBytes:           d.Varint(),
			ArchiveSegments:        d.Int(),
			ArchiveEvictedSegments: d.Int(),
			ArchiveEvictedBytes:    d.Varint(),
		}
		if dec.claim(d, name, outerKey, scope) {
			hb.Streams[name.s] = st
		}
	}
	sweep(dec, hb.Streams, n, outerKey, scope)
	for _, h := range [...]*obs.HistSnapshot{&hb.Extract, &hb.MCPush, &hb.QueueWait, &hb.UploadRTT} {
		readHist(d, h)
	}
	hb.Scores = readNested(d, dec, hb.Scores, minSketchBytes, readSketch)
	hb.ScoreVersions = readNested(d, dec, hb.ScoreVersions, 1, (*transport.LayoutReader).Uvarint)
	hb.PendingUploads = d.Int()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("heartbeat: %w", err)
	}
	return nil
}

// clone returns a deep copy of hb, sharing no map with it.
func (hb *Heartbeat) clone() Heartbeat {
	out := *hb
	out.Streams = maps.Clone(hb.Streams)
	out.Scores = cloneNested(hb.Scores)
	out.ScoreVersions = cloneNested(hb.ScoreVersions)
	return out
}

func cloneNested[V any](m map[string]map[string]V) map[string]map[string]V {
	if m == nil {
		return nil
	}
	out := make(map[string]map[string]V, len(m))
	for k, inner := range m {
		out[k] = maps.Clone(inner)
	}
	return out
}

// hbDecoder is what heartbeat decodes into one target keep between
// them: the layout reader, and an intern table of the stream and MC
// names seen. Each name carries the scope of the map it was last
// written to, at each nesting level, which is how a decode that
// overwrites a map in place tells a duplicate key from a key the
// previous decode left. The table starts over, between decodes, once it
// holds more than maxInternedNames, so a node cycling through names
// cannot grow it without limit.
type hbDecoder struct {
	d     transport.LayoutReader
	names map[string]*internedName
	scope uint64 // the newest map's scope; every map read takes a new one
}

// internedName is one entry of an hbDecoder's intern table.
type internedName struct {
	s       string
	written [2]uint64 // by nesting level: the scope of the map last given this key
}

// Nesting levels of a heartbeat's maps: the top-level maps (Streams, and
// Scores and ScoreVersions by stream), and the MC maps inside a stream.
const (
	outerKey = iota
	innerKey
)

// maxInternedNames bounds an hbDecoder's intern table between decodes.
const maxInternedNames = 4096

// name returns the interned entry for b, adding it on first sight.
func (dec *hbDecoder) name(b []byte) *internedName {
	if e := dec.names[string(b)]; e != nil {
		return e
	}
	e := &internedName{s: string(b)}
	dec.names[e.s] = e
	return e
}

// begin starts reading n entries into m in place: it returns m (nil for
// no entries, a new map when m is nil) and the scope the entries' keys
// are claimed in.
func begin[V any](dec *hbDecoder, m map[string]V, n int) (map[string]V, uint64) {
	dec.scope++
	switch {
	case n == 0:
		return nil, dec.scope
	case m == nil:
		return make(map[string]V, n), dec.scope
	}
	return m, dec.scope
}

// claim marks name as a key of the map of scope at level, reporting
// false and failing the layout if it already is one: a decoder that
// let the last entry win would accept two encodings of one heartbeat.
func (dec *hbDecoder) claim(d *transport.LayoutReader, name *internedName, level int, scope uint64) bool {
	if name.written[level] == scope {
		d.Fail(fmt.Errorf("duplicate key %q", name.s))
		return false
	}
	name.written[level] = scope
	return true
}

// sweep deletes the keys of m, which n entries of scope were read
// into, that the scope did not claim: those an earlier decode left.
func sweep[V any](dec *hbDecoder, m map[string]V, n, level int, scope uint64) {
	if len(m) <= n {
		return
	}
	for k := range m {
		if e := dec.names[k]; e == nil || e.written[level] != scope {
			delete(m, k)
		}
	}
}

// appendHist appends a histogram snapshot: Count, Sum, Max, then its
// nonzero buckets as (index delta, count) pairs.
func appendHist(b []byte, h *obs.HistSnapshot) []byte {
	b = binary.AppendUvarint(b, h.Count)
	b = binary.AppendVarint(b, h.Sum)
	b = binary.AppendVarint(b, h.Max)
	nonzero := 0
	for _, c := range h.Buckets {
		if c != 0 {
			nonzero++
		}
	}
	b = binary.AppendUvarint(b, uint64(nonzero))
	prev := -1
	for i, c := range h.Buckets {
		if c != 0 {
			b = binary.AppendUvarint(b, uint64(i-prev))
			b = binary.AppendUvarint(b, c)
			prev = i
		}
	}
	return b
}

// readHist reads what appendHist wrote into h, which it zeroes first
// (the layout holds only the nonzero buckets), refusing a bucket index
// that does not increase or falls outside the histogram.
func readHist(d *transport.LayoutReader, h *obs.HistSnapshot) {
	*h = obs.HistSnapshot{Count: d.Uvarint(), Sum: d.Varint(), Max: d.Varint()}
	prev := -1
	for n := d.Count(2); n > 0; n-- { // an index delta and a count
		delta, c := d.Uvarint(), d.Uvarint()
		if delta == 0 {
			d.Fail(errors.New("bucket indices do not increase"))
			return
		}
		if delta >= uint64(obs.NumBuckets-prev) {
			d.Fail(fmt.Errorf("bucket index %d+%d, want below %d", prev, delta, obs.NumBuckets))
			return
		}
		prev += int(delta)
		h.Buckets[prev] = c
	}
}

func appendSketch(b []byte, s obs.SketchSnapshot) []byte {
	b = binary.AppendUvarint(b, s.Count)
	b = binary.AppendUvarint(b, s.Passes)
	b = binary.AppendVarint(b, s.Sum)
	b = binary.AppendVarint(b, s.SumSq)
	for _, c := range s.Bins {
		b = binary.AppendUvarint(b, c)
	}
	return b
}

func readSketch(d *transport.LayoutReader) obs.SketchSnapshot {
	s := obs.SketchSnapshot{Count: d.Uvarint(), Passes: d.Uvarint(), Sum: d.Varint(), SumSq: d.Varint()}
	d.Uvarints(s.Bins[:])
	return s
}

// appendNested appends a stream → MC → value map.
func appendNested[V any](b []byte, m map[string]map[string]V, appendV func([]byte, V) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	for stream, inner := range m {
		b = transport.AppendString(b, stream)
		b = binary.AppendUvarint(b, uint64(len(inner)))
		for mc, v := range inner {
			b = transport.AppendString(b, mc)
			b = appendV(b, v)
		}
	}
	return b
}

// readNested reads what appendNested wrote into m in place (see
// decode), each stream's MC map into the one m held for the stream; a
// value takes at least minValueBytes.
func readNested[V any](d *transport.LayoutReader, dec *hbDecoder, m map[string]map[string]V, minValueBytes int, readV func(*transport.LayoutReader) V) map[string]map[string]V {
	n := d.Count(2) // a stream name and an inner count
	m, scope := begin(dec, m, n)
	for range n {
		stream := dec.name(d.Bytes())
		k := d.Count(1 + minValueBytes) // an MC name and a value
		inner, innerScope := begin(dec, m[stream.s], k)
		for range k {
			mc := dec.name(d.Bytes())
			v := readV(d)
			if dec.claim(d, mc, innerKey, innerScope) {
				inner[mc.s] = v
			}
		}
		sweep(dec, inner, k, innerKey, innerScope)
		if dec.claim(d, stream, outerKey, scope) {
			m[stream.s] = inner
		}
	}
	sweep(dec, m, n, outerKey, scope)
	return m
}

// UploadAck acknowledges one received upload by its edge-assigned
// sequence number (datacenter → edge). The edge retires every
// buffered upload with Seq at or below it; unacked uploads are
// retransmitted after a reconnect and deduplicated by the receiver,
// giving exactly-once upload accounting over an at-least-once wire.
//
// Like transport.UploadRecord its payload is a fixed binary layout
// rather than gob: one uvarint, Seq.
type UploadAck struct {
	Seq uint64
}

// AppendBinary appends the ack's binary layout to b.
func (a UploadAck) AppendBinary(b []byte) ([]byte, error) {
	return binary.AppendUvarint(b, a.Seq), nil
}

// UnmarshalBinary decodes exactly one ack's binary layout, refusing
// truncated input and trailing bytes.
func (a *UploadAck) UnmarshalBinary(data []byte) error {
	d := transport.NewLayoutReader(data)
	seq := d.Uvarint()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("upload ack: %w", err)
	}
	a.Seq = seq
	return nil
}
