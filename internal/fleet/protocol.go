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
	"time"

	"repro/internal/obs"
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
	// Shadows is the node's per-stream shadow (canary candidate)
	// inventory, mirroring Deployed. Reconciliation withdraws reported
	// shadows whose canary record is decided or gone — without it a
	// lost rollback push would leave a dead candidate scoring frames
	// forever on a node that reconnects without restarting. Nil from
	// older agents (gob zero), which disables shadow withdrawal only.
	// The inventory also covers controller restarts: a durable
	// controller recovers undecided canary records from its state dir,
	// so a resume hello reporting the matching shadow is re-adopted
	// (re-pushed with a bumped epoch), never withdrawn as untracked.
	Shadows map[string][]string
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

// Redirect refuses or terminates a session because the node belongs
// to a different controller shard (datacenter → edge). The edge
// treats it like any other lost session: it redials, and its resume
// hello reconciles ledger and deploy state on the owning shard.
type Redirect struct {
	// Shard is the owning shard at the time of the redirect — purely
	// informational for a single-address fleet, where redialing the
	// same endpoint routes correctly.
	Shard int
	// Epoch is the placement epoch the redirect was issued under.
	Epoch uint64
	// Reason describes why the session was turned away ("re-homed",
	// "stale placement").
	Reason string
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
	// second decode. Zero from older controllers.
	Version uint64
	// Canary installs the MC as a shadow candidate: it scores frames
	// alongside the same-named incumbent into a private sketch without
	// affecting uploads, until the controller promotes or rolls it
	// back. Older agents decode the field as false and treat the
	// request as a live deploy. Nothing on the controller checks for
	// that: StartCanary asks only for a same-named incumbent (in intent,
	// or in the node's last heartbeat sketches), so a canary assumes an
	// agent that knows the field.
	Canary bool
	// Epoch is the controller's install counter for the canary's
	// shadow slot, starting at 1 and bumped on every reconciliation
	// re-push. The edge stores it with the shadow and echoes it in
	// Heartbeat.ShadowEpochs, so the evaluator can re-anchor its window
	// on any reinstall even when the fresh sketch's count has caught up
	// with the old one. Zero outside canary deploys.
	Epoch uint64
	// Promote atomically swaps the named shadow candidate into the
	// live slot; MC is empty (the edge already holds the candidate)
	// and MCName names it.
	Promote bool
	// MCName names the shadow for Promote; derived from MC otherwise.
	MCName string
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
	// Canary removes the named shadow candidate instead of a live
	// MC — the rollback path. The live deployment is untouched.
	Canary bool
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
type FetchData struct {
	Seq    uint64
	Stream string
	Frames []FrameData
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
// plus node-level latency histogram summaries when the agent runs
// with an observer. The summaries are node-wide (streams share one
// observer), so the rollup side must attribute them once per node,
// not once per stream. Zero-count summaries mean "not instrumented";
// gob decodes heartbeats from older nodes with the fields zeroed.
type Heartbeat struct {
	Streams map[string]StreamStats
	// Extract, MCPush, QueueWait, and UploadRTT digest the node's
	// base-DNN extraction, MC classification, scheduler queue-wait,
	// and upload send-to-ack latency histograms.
	Extract   obs.Summary
	MCPush    obs.Summary
	QueueWait obs.Summary
	UploadRTT obs.Summary
	// Scores carries each stream's per-MC cumulative score sketches
	// (stream → MC name → sketch since deploy) — the semantic signal
	// the controller's drift detector consumes. Cumulative, like the
	// latency summaries: the controller derives recent windows by
	// subtracting the previous heartbeat's snapshot. Nil/missing means
	// an older node or no deployed MCs; gob decodes heartbeats from
	// older nodes with the field zeroed.
	Scores map[string]map[string]obs.SketchSnapshot
	// ScoreVersions carries the deployed model version behind each
	// sketch in Scores (stream → MC name → filter.Spec.Version). The
	// drift detector keys redeploy resets on version changes; agents
	// predating versioning omit the map (gob zero) and the controller
	// falls back to cumulative-count regression.
	ScoreVersions map[string]map[string]uint64
	// ShadowScores and ShadowVersions mirror Scores/ScoreVersions for
	// canary candidates running in shadow mode — the
	// candidate-vs-incumbent signal the controller's canary evaluator
	// consumes. Cumulative since shadow deploy.
	ShadowScores   map[string]map[string]obs.SketchSnapshot
	ShadowVersions map[string]map[string]uint64
	// ShadowEpochs echoes each shadow's DeployRequest.Epoch (stream →
	// MC name → install counter). The canary evaluator re-anchors its
	// window whenever a pair's epoch changes — cumulative-count
	// regression alone misses a reinstalled shadow whose fresh sketch
	// caught up between heartbeats. Agents predating the field omit it
	// (gob zero) and the controller falls back to count regression.
	ShadowEpochs map[string]map[string]uint64
	// PendingUploads is the node-level count of uploads buffered
	// awaiting a controller ack — the edge's backlog, an SLO input on
	// the datacenter side (a growing backlog means the uplink or the
	// controller is falling behind the event rate).
	PendingUploads int
}

// UploadAck acknowledges one received upload by its edge-assigned
// sequence number (datacenter → edge). The edge retires every
// buffered upload with Seq at or below it; unacked uploads are
// retransmitted after a reconnect and deduplicated by the receiver,
// giving exactly-once upload accounting over an at-least-once wire.
//
// Like transport.UploadRecord, and unlike every other record here, its
// payload is a fixed binary layout rather than gob: one uvarint, Seq.
type UploadAck struct {
	Seq uint64
}

// AppendBinary appends the ack's binary layout to b.
func (a UploadAck) AppendBinary(b []byte) ([]byte, error) {
	return binary.AppendUvarint(b, a.Seq), nil
}

// MarshalBinary returns the ack's binary layout; with UnmarshalBinary
// it keeps gob symmetric should an ack ever be nested in a gob value.
func (a UploadAck) MarshalBinary() ([]byte, error) { return a.AppendBinary(nil) }

// UnmarshalBinary decodes exactly one ack's binary layout, refusing
// truncated input and trailing bytes.
func (a *UploadAck) UnmarshalBinary(data []byte) error {
	seq, n := binary.Uvarint(data)
	if n <= 0 {
		return errors.New("upload ack: truncated or overlong sequence number")
	}
	if n != len(data) {
		return fmt.Errorf("upload ack: %d trailing bytes", len(data)-n)
	}
	a.Seq = seq
	return nil
}
