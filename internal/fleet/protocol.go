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
// back as fetchData records ahead of the response trailer.
type FetchRequest struct {
	Seq         uint64
	Stream      string
	Start, End  int
	Bitrate     float64
	IncludeData bool
}

// frameData is one reconstructed frame on the wire.
type frameData struct {
	W, H int
	Pix  []float32
}

// fetchData carries a chunk of demand-fetched frames (edge →
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
type fetchData struct {
	Seq    uint64
	Stream string
	Frames []frameData
}

// minFrameBytes is the smallest encoded frame: W, H and the sample
// count take a byte each.
const minFrameBytes = 3

// AppendBinary appends the record's binary layout to b, growing b once
// to the record's size.
func (fd fetchData) AppendBinary(b []byte) ([]byte, error) {
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
func (fd *fetchData) UnmarshalBinary(data []byte) error {
	d := transport.NewLayoutReader(data)
	out := fetchData{Seq: d.Uvarint(), Stream: d.String()}
	if n := d.Count(minFrameBytes); n > 0 {
		out.Frames = make([]frameData, 0, n)
		for ; n > 0; n-- {
			w, h, pix := d.Uvarint(), d.Uvarint(), d.Float32s()
			// w ≤ len/3 keeps 3·w from wrapping; then w·h·3 = len
			// holds exactly when h = len/(3·w) with nothing left over.
			if m := uint64(len(pix)); w == 0 || h == 0 || w > m/3 || m%(3*w) != 0 || h != m/(3*w) {
				d.Fail(fmt.Errorf("a %dx%d frame with %d samples", w, h, len(pix)))
				break
			}
			out.Frames = append(out.Frames, frameData{W: int(w), H: int(h), Pix: pix})
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
// fetchData records when the request asked for it; accounting-only
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

// AppendBinary appends the heartbeat's binary layout to b, in one walk
// over its fields: b grows as appends need, so a buffer reused from the
// last heartbeat, as the agent's writer and transport.WriteRecord reuse
// theirs, does not grow at all.
func (hb Heartbeat) AppendBinary(b []byte) ([]byte, error) {
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
	b = binary.AppendUvarint(b, uint64(len(hb.Scores)))
	for stream, inner := range hb.Scores {
		b = transport.AppendString(b, stream)
		b = binary.AppendUvarint(b, uint64(len(inner)))
		for mc, s := range inner {
			b = transport.AppendString(b, mc)
			b = appendSketch(b, &s)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(hb.ScoreVersions)))
	for stream, inner := range hb.ScoreVersions {
		b = transport.AppendString(b, stream)
		b = binary.AppendUvarint(b, uint64(len(inner)))
		for mc, v := range inner {
			b = transport.AppendString(b, mc)
			b = binary.AppendUvarint(b, v)
		}
	}
	return binary.AppendVarint(b, int64(hb.PendingUploads)), nil
}

// UnmarshalBinary decodes exactly one heartbeat's binary layout: the
// same parser a session runs in place (decode), run on a fresh record
// with a fresh decoder, and the record's value.
func (hb *Heartbeat) UnmarshalBinary(data []byte) error {
	var r hbRecord
	if err := r.decode(data, new(hbDecoder)); err != nil {
		return err
	}
	*hb = r.heartbeat()
	return nil
}

// hbRecord is a heartbeat as a session keeps it: the score sections in
// a scoreTable, every other field in the embedded Heartbeat, whose
// Scores and ScoreVersions stay nil. heartbeat builds the Heartbeat
// value, nested maps and all, where one is handed out.
type hbRecord struct {
	Heartbeat
	scores scoreTable
}

// decode parses one heartbeat's layout into r in place. The Streams
// map is refilled: an entry the layout holds overwrites the one under
// its key, a key the layout lacks is deleted, and a map of no entries
// becomes nil. Every histogram is zeroed before its buckets are read,
// and the score sections are read into r.scores, reusing its entries.
// Names and pairs come from dec's intern table, so a heartbeat like the
// one r held decodes without allocating. On an error r is left
// half-written: UnmarshalBinary decodes into a fresh record and a
// session into its spare, so neither exposes one.
func (r *hbRecord) decode(data []byte, dec *hbDecoder) error {
	if dec.names == nil || len(dec.names)+dec.pairs > maxInternedNames {
		dec.names, dec.pairs = make(map[string]*internedName), 0
	}
	d := transport.NewLayoutReader(data)
	n := d.Count(minStreamBytes)
	scope := dec.newScope()
	switch {
	case n == 0:
		r.Streams = nil
	case r.Streams == nil:
		r.Streams = make(map[string]StreamStats, n)
	}
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
		if dec.claim(&d, name, scope) {
			r.Streams[name.s] = st
		}
	}
	if len(r.Streams) > n { // keys an earlier decode left
		for k := range r.Streams {
			if e := dec.names[k]; e == nil || e.written != scope {
				delete(r.Streams, k)
			}
		}
	}
	for _, h := range [...]*obs.HistSnapshot{&r.Extract, &r.MCPush, &r.QueueWait, &r.UploadRTT} {
		readHist(&d, h)
	}
	r.scores.read(&d, dec)
	r.PendingUploads = d.Int()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("heartbeat: %w", err)
	}
	return nil
}

// heartbeat returns r as a Heartbeat value that shares no map with r:
// the Streams map copied, Scores and ScoreVersions built from the score
// table.
func (r *hbRecord) heartbeat() Heartbeat {
	hb := r.Heartbeat
	hb.Streams = maps.Clone(r.Streams)
	hb.Scores = nestedMap(r.scores.sketchRuns, r.scores.sketches, func(e *pairSketch) (string, obs.SketchSnapshot) { return e.pair.mc, e.sketch })
	hb.ScoreVersions = nestedMap(r.scores.versionRuns, r.scores.versions, func(e *pairVersion) (string, uint64) { return e.pair.mc, e.version })
	return hb
}

// nestedMap builds a stream → MC → value map from a score section:
// nil for no streams, a nil inner map for a stream of no entries.
func nestedMap[E, V any](runs []streamRun, entries []E, kv func(*E) (string, V)) map[string]map[string]V {
	if len(runs) == 0 {
		return nil
	}
	m := make(map[string]map[string]V, len(runs))
	for _, run := range runs {
		var inner map[string]V
		if run.n > 0 {
			inner = make(map[string]V, run.n)
			for i := range entries[:run.n] {
				mc, v := kv(&entries[i])
				inner[mc] = v
			}
		}
		m[run.name] = inner
		entries = entries[run.n:]
	}
	return m
}

// scoreTable is a heartbeat's two score sections, Scores and
// ScoreVersions, as a session parses them: each section's entries in
// wire order, stream after stream, each naming its (stream, MC) pair as
// the session's decoder interned it. The drift detector, the shard's
// loads and lastHeartbeat read it in place, so no sketch is copied into
// a nested map and back out, and no pair's drift key is built per
// heartbeat.
type scoreTable struct {
	sketches []pairSketch
	versions []pairVersion
	// sketchRuns and versionRuns are each section's streams in wire
	// order, with their entry counts: a section's entries are its
	// streams' runs, one after another.
	sketchRuns, versionRuns []streamRun
}

// pairSketch is one Scores entry: a pair's cumulative sketch, and the
// model version ScoreVersions gives the pair (zero when it gives none).
type pairSketch struct {
	pair    *scorePair
	sketch  obs.SketchSnapshot
	version uint64
}

// pairVersion is one ScoreVersions entry.
type pairVersion struct {
	pair    *scorePair
	version uint64
}

// streamRun is one stream of a score section and its entry count.
type streamRun struct {
	name string
	n    int
}

// scorePair is one (stream, MC) pair of a session's heartbeats, made
// once by the session's decoder. Its MC name and key never change once
// made; the other fields belong to the session's reader goroutine.
type scorePair struct {
	mc  string
	key string // "stream/mc": the pair's key in nodeState.Drift
	// claimed holds, by section (Scores, then ScoreVersions), the scope
	// of the last read of that section that held the pair, and slot the
	// pair's index in the Scores entries of the read that last claimed
	// it there.
	claimed [2]uint64
	slot    int
	// base is the frozen baseline of ds, the pair's drift state,
	// prepared for scoring; observeScores derives it again whenever the
	// node's Drift map holds another state for key (see there).
	ds   *driftState
	base obs.Baseline
}

// Score sections, the index of each in scorePair.claimed.
const (
	sketchSection = iota
	versionSection
)

// streamSketches returns the Scores entries of the named stream.
func (t *scoreTable) streamSketches(stream string) []pairSketch {
	lo, hi := runOf(t.sketchRuns, stream)
	return t.sketches[lo:hi]
}

// streamVersions returns the ScoreVersions entries of the named stream.
func (t *scoreTable) streamVersions(stream string) []pairVersion {
	lo, hi := runOf(t.versionRuns, stream)
	return t.versions[lo:hi]
}

// runOf returns the entries [lo, hi) of the named stream's run, an
// empty span when the section has none.
func runOf(runs []streamRun, stream string) (lo, hi int) {
	for _, run := range runs {
		if run.name == stream {
			return lo, lo + run.n
		}
		lo += run.n
	}
	return 0, 0
}

// read reads the Scores section, then the ScoreVersions section, into
// t, refusing a stream twice in a section or an MC twice in a stream.
func (t *scoreTable) read(d *transport.LayoutReader, dec *hbDecoder) {
	t.sketches, t.sketchRuns = t.sketches[:0], t.sketchRuns[:0]
	t.versions, t.versionRuns = t.versions[:0], t.versionRuns[:0]
	sketchScope := dec.newScope()
	for n := d.Count(2); n > 0; n-- { // a stream name and a count
		stream := dec.name(d.Bytes())
		k := d.Count(1 + minSketchBytes) // an MC name and a sketch
		for range k {
			p := dec.pair(d, stream, d.Bytes(), sketchSection, sketchScope)
			p.slot = len(t.sketches)
			if p.slot < cap(t.sketches) {
				t.sketches = t.sketches[:p.slot+1]
			} else {
				t.sketches = append(t.sketches, pairSketch{})
			}
			e := &t.sketches[p.slot]
			e.pair, e.version = p, 0
			readSketch(d, &e.sketch)
		}
		dec.claim(d, stream, sketchScope)
		t.sketchRuns = append(t.sketchRuns, streamRun{stream.s, k})
	}
	scope := dec.newScope()
	for n := d.Count(2); n > 0; n-- {
		stream := dec.name(d.Bytes())
		k := d.Count(1 + 1) // an MC name and a version
		for range k {
			p := dec.pair(d, stream, d.Bytes(), versionSection, scope)
			v := d.Uvarint()
			t.versions = append(t.versions, pairVersion{p, v})
			if p.claimed[sketchSection] == sketchScope {
				t.sketches[p.slot].version = v
			}
		}
		dec.claim(d, stream, scope)
		t.versionRuns = append(t.versionRuns, streamRun{stream.s, k})
	}
}

// hbDecoder is what heartbeat decodes into one session's records keep
// between them: an intern table of the stream and MC names seen, each
// stream name with the (stream, MC) pairs seen under it. Each name
// carries the scope of the map or section it last keyed a stream of,
// and each pair the scope of each section it was last read in, which is
// how a decode that overwrites a record in place tells a duplicate key
// from a key the previous decode left. The table starts over, between
// decodes, once its names and pairs number more than maxInternedNames,
// so a node cycling through names cannot grow it without limit.
type hbDecoder struct {
	names map[string]*internedName
	pairs int    // the pairs interned under names
	scope uint64 // the newest map's or section's scope
}

// internedName is one entry of an hbDecoder's intern table.
type internedName struct {
	s       string
	written uint64                // the scope of the map or section last given this stream key
	pairs   map[string]*scorePair // by MC name, the pairs of this stream
}

// maxInternedNames bounds an hbDecoder's intern table between decodes.
const maxInternedNames = 4096

// newScope returns a scope for the next map or section read.
func (dec *hbDecoder) newScope() uint64 {
	dec.scope++
	return dec.scope
}

// name returns the interned entry for b, adding it on first sight.
func (dec *hbDecoder) name(b []byte) *internedName {
	if e := dec.names[string(b)]; e != nil {
		return e
	}
	e := &internedName{s: string(b)}
	dec.names[e.s] = e
	return e
}

// claim marks name as a stream key of the map or section of scope,
// reporting false and failing the layout if it already is one: a
// decoder that let the last entry win would accept two encodings of one
// heartbeat.
func (dec *hbDecoder) claim(d *transport.LayoutReader, name *internedName, scope uint64) bool {
	if name.written == scope {
		d.Fail(fmt.Errorf("duplicate key %q", name.s))
		return false
	}
	name.written = scope
	return true
}

// pair returns the interned pair of stream and the MC named mc, adding
// it on first sight, and claims it for the section read of scope,
// failing the layout if that read already holds it.
func (dec *hbDecoder) pair(d *transport.LayoutReader, stream *internedName, mc []byte, section int, scope uint64) *scorePair {
	p := stream.pairs[string(mc)]
	if p == nil {
		if stream.pairs == nil {
			stream.pairs = make(map[string]*scorePair)
		}
		p = &scorePair{mc: string(mc)}
		p.key = stream.s + "/" + p.mc
		stream.pairs[p.mc] = p
		dec.pairs++
	}
	if p.claimed[section] == scope {
		d.Fail(fmt.Errorf("duplicate key %q", p.mc))
	}
	p.claimed[section] = scope
	return p
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

func appendSketch(b []byte, s *obs.SketchSnapshot) []byte {
	b = binary.AppendUvarint(b, s.Count)
	b = binary.AppendUvarint(b, s.Passes)
	b = binary.AppendVarint(b, s.Sum)
	b = binary.AppendVarint(b, s.SumSq)
	for _, c := range s.Bins[:] { // a slice: ranging over the array would copy it
		b = binary.AppendUvarint(b, c)
	}
	return b
}

// readSketch reads what appendSketch wrote into s.
func readSketch(d *transport.LayoutReader, s *obs.SketchSnapshot) {
	s.Count, s.Passes, s.Sum, s.SumSq = d.Uvarint(), d.Uvarint(), d.Varint(), d.Varint()
	d.Uvarints(s.Bins[:])
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
