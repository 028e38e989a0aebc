package metrics

import "repro/internal/obs"

// NodeLoad summarizes one fleet stream's uplink counters as reported
// in the control plane's heartbeat records (internal/fleet). The
// datacenter controller converts heartbeats into NodeLoads and rolls
// them up with SummarizeFleet for its periodic status output.
type NodeLoad struct {
	// Node names the load source, conventionally "node/stream".
	Node string
	// Frames is the number of frames the pipeline processed.
	Frames int
	// FPS is the stream frame rate (used to convert counters into
	// rates; a non-positive FPS excludes the node from rate terms).
	FPS int
	// Uploads is the number of coded segments sent.
	Uploads int
	// UploadedBits is the total coded size of event-segment uploads.
	UploadedBits int64
	// DemandFetchBits is the demand-fetched archive traffic, reported
	// separately from the filtering pipeline's own output.
	DemandFetchBits int64
	// ArchivedBits is the codec-model cost of the stream's continuous
	// local archive. It is local-disk I/O, not uplink traffic, so it
	// stays out of Bitrate.
	ArchivedBits int64
	// ArchiveBytes is the stream's current on-disk archive footprint;
	// ArchiveEvictedSegments and ArchiveEvictedBytes count what its
	// retention policy has reclaimed.
	ArchiveBytes           int64
	ArchiveEvictedSegments int
	ArchiveEvictedBytes    int64
	// Evicted counts sessions the controller force-closed for this
	// node (heartbeat-liveness timeouts and stale sessions replaced
	// by a reconnect); Reconnects counts resume hellos accepted. Both
	// survive the sessions they describe — the fleet's
	// churn-vs-stability signal. They are node-level counters: when a
	// node contributes one NodeLoad per stream, set them on a single
	// load so SummarizeFleet does not double-count.
	Evicted    int
	Reconnects int
	// PendingUploads is the node's upload backlog (uploads buffered
	// edge-side awaiting a controller ack) from its latest heartbeat.
	// Node-level like Evicted: set it on a single load per node.
	PendingUploads int
	// ExtractLat, MCPushLat, QueueWaitLat, and UploadRTTLat are the
	// node's latency histograms (base-DNN extraction, MC push,
	// scheduler queue wait, upload send-to-ack round trip) as carried
	// in heartbeats. Like Evicted/Reconnects they are node-level: when
	// a node contributes one NodeLoad per stream, set them on a single
	// load so SummarizeFleet does not double-count observations.
	ExtractLat   obs.HistSnapshot
	MCPushLat    obs.HistSnapshot
	QueueWaitLat obs.HistSnapshot
	UploadRTTLat obs.HistSnapshot
	// Scores merges the stream's per-MC cumulative score sketches as
	// carried in heartbeats — the semantic load next to the byte
	// counters above. Keyed by stream in heartbeats, it is per-stream
	// like Frames, not node-level like ExtractLat.
	Scores obs.SketchSnapshot
	// DriftPSI and DriftKS are the worst most-recent drift scores
	// across the stream's (stream, MC) pairs as scored by the
	// controller's detector; Drifted counts pairs currently above an
	// alert threshold. Per-stream, like Scores.
	DriftPSI float64
	DriftKS  float64
	Drifted  int
	// MCVersion is the highest deployed model version across the
	// stream's MCs (zero for unversioned artifacts). Per-stream, like
	// Scores.
	MCVersion uint64
}

// Bitrate returns the node's realized average uplink usage in bits/s
// (uploads plus demand fetches — everything crossing the physical
// link), 0 when frames or FPS are unknown.
func (n NodeLoad) Bitrate() float64 {
	if n.Frames <= 0 || n.FPS <= 0 {
		return 0
	}
	return float64(n.UploadedBits+n.DemandFetchBits) / (float64(n.Frames) / float64(n.FPS))
}

// FleetSummary aggregates per-node loads into fleet-wide totals.
type FleetSummary struct {
	// Nodes is the number of loads aggregated.
	Nodes int
	// Frames, Uploads, UploadedBits, and DemandFetchBits are fleet
	// totals.
	Frames          int
	Uploads         int
	UploadedBits    int64
	DemandFetchBits int64
	// ArchivedBits, ArchiveBytes, ArchiveEvictedSegments, and
	// ArchiveEvictedBytes roll up the fleet's on-disk archives — the
	// capacity-planning view of how much context video the edges hold
	// and how hard retention is working.
	ArchivedBits           int64
	ArchiveBytes           int64
	ArchiveEvictedSegments int
	ArchiveEvictedBytes    int64
	// Evicted and Reconnects total the fleet's session-lifecycle
	// churn: sessions the controller force-closed and resume hellos
	// it accepted. A healthy fleet on a flaky backhaul shows
	// Reconnects ≈ Evicted + connection-loss count and steady upload
	// totals; Reconnects of zero alongside evictions means nodes are
	// dying, not recovering.
	Evicted    int
	Reconnects int
	// PendingUploads totals the fleet's edge-side upload backlog — the
	// uploads buffered awaiting controller acks as of the latest
	// heartbeats.
	PendingUploads int
	// ExtractLat, MCPushLat, QueueWaitLat, and UploadRTTLat are the
	// fleet's latency histograms: the nodes' snapshots merged exactly
	// (obs.HistSnapshot.Merge), so their quantiles are fleet-wide
	// quantiles, the same under any shard grouping.
	ExtractLat   obs.HistSnapshot
	MCPushLat    obs.HistSnapshot
	QueueWaitLat obs.HistSnapshot
	UploadRTTLat obs.HistSnapshot
	// AverageBitrate is total uploaded bits over total stream time
	// across nodes with a known rate, in bits/s.
	AverageBitrate float64
	// RatedBits and RatedSeconds are AverageBitrate's numerator and
	// denominator (link bits and stream time of nodes with a known
	// rate). They are carried explicitly so per-shard summaries merge
	// exactly: averages of averages drift, but sums of sums do not.
	RatedBits    int64
	RatedSeconds float64
	// MaxNodeBitrate is the highest single-node average bitrate —
	// the hot spot a capacity planner watches.
	MaxNodeBitrate float64
	// MaxNode names the node behind MaxNodeBitrate.
	MaxNode string
	// Scores is the fleet-wide merge of per-stream score sketches.
	// Sketch merging is exact (integer adds), so the fleet sketch is
	// bit-for-bit identical however loads are grouped into shards.
	Scores obs.SketchSnapshot
	// Drifted totals the fleet's (stream, MC) pairs currently above a
	// drift alert threshold. MaxDriftPSI and MaxDriftKS are the worst
	// per-load drift scores; MaxDriftNode names the load behind
	// MaxDriftPSI (ties break toward the smaller name, keeping the
	// pick a proper semilattice like MaxNode).
	Drifted      int
	MaxDriftPSI  float64
	MaxDriftKS   float64
	MaxDriftNode string
	// MaxMCVersion is the highest deployed model version anywhere in
	// the fleet — a max, so it is exact under any shard grouping.
	MaxMCVersion uint64
}

// SummarizeFleet rolls up per-node heartbeat loads into a fleet
// summary: each load as a one-node summary, merged.
func SummarizeFleet(nodes []NodeLoad) FleetSummary {
	var s FleetSummary
	for _, n := range nodes {
		s.Merge(n.summary())
	}
	return s
}

// summary is the load as a one-node FleetSummary. A load is the hot
// spot (MaxNode) only with a positive bitrate, and the drift hot spot
// (MaxDriftNode) only with a positive PSI, so a load with neither
// never names itself in a merge.
func (n NodeLoad) summary() FleetSummary {
	s := FleetSummary{
		Nodes: 1, Frames: n.Frames, Uploads: n.Uploads,
		UploadedBits: n.UploadedBits, DemandFetchBits: n.DemandFetchBits,
		ArchivedBits: n.ArchivedBits, ArchiveBytes: n.ArchiveBytes,
		ArchiveEvictedSegments: n.ArchiveEvictedSegments, ArchiveEvictedBytes: n.ArchiveEvictedBytes,
		Evicted: n.Evicted, Reconnects: n.Reconnects, PendingUploads: n.PendingUploads,
		ExtractLat: n.ExtractLat, MCPushLat: n.MCPushLat,
		QueueWaitLat: n.QueueWaitLat, UploadRTTLat: n.UploadRTTLat,
		Scores: n.Scores, Drifted: n.Drifted, MaxDriftKS: n.DriftKS, MaxMCVersion: n.MCVersion,
	}
	if n.Frames > 0 && n.FPS > 0 {
		s.RatedSeconds = float64(n.Frames) / float64(n.FPS)
		s.RatedBits = n.UploadedBits + n.DemandFetchBits
	}
	if br := n.Bitrate(); br > 0 {
		s.MaxNodeBitrate, s.MaxNode = br, n.Node
	}
	if n.DriftPSI > 0 {
		s.MaxDriftPSI, s.MaxDriftNode = n.DriftPSI, n.Node
	}
	return s
}

// Merge folds another summary into s — the cross-shard rollup, and the
// one merge rule SummarizeFleet applies load by load. Counts, totals,
// latency histograms and score sketches add; AverageBitrate is
// recomputed from the exact RatedBits/RatedSeconds sums; the hot-spot
// picks are maxima whose ties break toward the smaller name, a proper
// semilattice, so the pick does not depend on the order loads arrive
// in.
// Merge is associative and commutative, so shards may report in any
// order, grouping, or interleaving and the rollup is identical — and
// equal to SummarizeFleet over the concatenated loads.
func (s *FleetSummary) Merge(o FleetSummary) {
	s.Nodes += o.Nodes
	s.Frames += o.Frames
	s.Uploads += o.Uploads
	s.UploadedBits += o.UploadedBits
	s.DemandFetchBits += o.DemandFetchBits
	s.ArchivedBits += o.ArchivedBits
	s.ArchiveBytes += o.ArchiveBytes
	s.ArchiveEvictedSegments += o.ArchiveEvictedSegments
	s.ArchiveEvictedBytes += o.ArchiveEvictedBytes
	s.Evicted += o.Evicted
	s.Reconnects += o.Reconnects
	s.PendingUploads += o.PendingUploads
	s.ExtractLat.Merge(o.ExtractLat)
	s.MCPushLat.Merge(o.MCPushLat)
	s.QueueWaitLat.Merge(o.QueueWaitLat)
	s.UploadRTTLat.Merge(o.UploadRTTLat)
	s.RatedBits += o.RatedBits
	s.RatedSeconds += o.RatedSeconds
	if o.MaxNodeBitrate > s.MaxNodeBitrate ||
		(o.MaxNodeBitrate > 0 && o.MaxNodeBitrate == s.MaxNodeBitrate && o.MaxNode < s.MaxNode) {
		s.MaxNodeBitrate = o.MaxNodeBitrate
		s.MaxNode = o.MaxNode
	}
	s.Scores.Merge(o.Scores)
	s.Drifted += o.Drifted
	if o.MaxDriftPSI > s.MaxDriftPSI ||
		(o.MaxDriftPSI > 0 && o.MaxDriftPSI == s.MaxDriftPSI && o.MaxDriftNode < s.MaxDriftNode) {
		s.MaxDriftPSI = o.MaxDriftPSI
		s.MaxDriftNode = o.MaxDriftNode
	}
	if o.MaxDriftKS > s.MaxDriftKS {
		s.MaxDriftKS = o.MaxDriftKS
	}
	if o.MaxMCVersion > s.MaxMCVersion {
		s.MaxMCVersion = o.MaxMCVersion
	}
	s.AverageBitrate = 0
	if s.RatedSeconds > 0 {
		s.AverageBitrate = float64(s.RatedBits) / s.RatedSeconds
	}
}

// MergeFleet rolls per-shard summaries up into one fleet summary.
func MergeFleet(parts []FleetSummary) FleetSummary {
	var s FleetSummary
	for _, p := range parts {
		s.Merge(p)
	}
	return s
}
