package synthedge

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/transport"
)

// The synthetic edge reports this many streams, each with this many
// microclassifiers: enough that decoding a heartbeat and evaluating
// drift over its score sketches is real work for the controller.
const (
	NumStreams   = 8
	MCsPerStream = 8
)

func streamName(i int) string { return fmt.Sprintf("cam%d", i) }
func mcName(i int) string     { return fmt.Sprintf("mc%d", i) }

// Streams is the stream inventory the synthetic edge announces.
func Streams() []fleet.StreamInfo {
	out := make([]fleet.StreamInfo, NumStreams)
	for i := range out {
		out[i] = fleet.StreamInfo{Name: streamName(i), Width: 96, Height: 54, FPS: 15}
	}
	return out
}

// Heartbeats generates the cumulative heartbeats of a node that keeps
// processing frames: every Next advances each stream's counters and
// each microclassifier's score sketch, as a live pipeline's would.
type Heartbeats struct {
	rng *rand.Rand
	hb  fleet.Heartbeat
}

// NewHeartbeats returns a generator whose sequence is a function of
// seed alone.
func NewHeartbeats(seed int64) *Heartbeats {
	h := &Heartbeats{rng: rand.New(rand.NewSource(seed))}
	h.hb = fleet.Heartbeat{
		Streams:       make(map[string]fleet.StreamStats, NumStreams),
		Scores:        make(map[string]map[string]obs.SketchSnapshot, NumStreams),
		ScoreVersions: make(map[string]map[string]uint64, NumStreams),
	}
	for s := 0; s < NumStreams; s++ {
		name := streamName(s)
		h.hb.Streams[name] = fleet.StreamStats{}
		h.hb.Scores[name] = make(map[string]obs.SketchSnapshot, MCsPerStream)
		h.hb.ScoreVersions[name] = make(map[string]uint64, MCsPerStream)
		for m := 0; m < MCsPerStream; m++ {
			h.hb.Scores[name][mcName(m)] = obs.SketchSnapshot{}
			h.hb.ScoreVersions[name][mcName(m)] = 1
		}
	}
	return h
}

// Next returns the next heartbeat. The value shares its maps with the
// generator: send it before calling Next again.
func (h *Heartbeats) Next() fleet.Heartbeat {
	const frames = 30 // two seconds of a 15 fps stream per heartbeat
	for s := 0; s < NumStreams; s++ {
		name := streamName(s)
		st := h.hb.Streams[name]
		st.Frames += frames
		st.Uploads++
		st.UploadedFrames += 12
		st.UploadedBits += 40_000
		h.hb.Streams[name] = st
		for m := 0; m < MCsPerStream; m++ {
			sk := h.hb.Scores[name][mcName(m)]
			for f := 0; f < frames; f++ {
				// Scores cluster low with a positive tail, the
				// shape a trained MC produces.
				score := h.rng.Float64() * h.rng.Float64()
				q := int64(score*obs.SketchUnit + 0.5)
				sk.Count++
				sk.Sum += q
				sk.SumSq += q * q / obs.SketchUnit
				sk.Bins[int(score*obs.SketchBins)%obs.SketchBins]++
				if score >= 0.5 {
					sk.Passes++
				}
			}
			h.hb.Scores[name][mcName(m)] = sk
		}
	}
	return h.hb
}

// Uploads generates n upload records with sequence numbers first,
// first+1, …: events rotate over the node's stream/MC pairs with
// seeded lengths and sizes.
func Uploads(seed int64, first uint64, n int) []transport.UploadRecord {
	rng := rand.New(rand.NewSource(seed))
	out := make([]transport.UploadRecord, n)
	frame := make([]int, NumStreams*MCsPerStream)
	for i := range out {
		pair := rng.Intn(len(frame))
		length := 8 + rng.Intn(41)
		start := frame[pair] + rng.Intn(200)
		frame[pair] = start + length
		out[i] = transport.UploadRecord{
			MCName:  streamName(pair/MCsPerStream) + "/" + mcName(pair%MCsPerStream),
			EventID: uint64(i/2 + 1),
			Start:   start, End: start + length,
			Bits:  int64(length) * int64(2000+rng.Intn(6000)),
			Final: rng.Intn(3) > 0,
			Seq:   first + uint64(i),
		}
	}
	return out
}

// Artifact returns deployable bytes for a microclassifier named name:
// the spec header the controller reads to key its intent, and an
// opaque 32 KB weight payload. The synthetic edge never loads it.
func Artifact(name string, seed int64) ([]byte, error) {
	type spec struct {
		Name    string
		Version uint64
	}
	payload := make([]byte, 32<<10)
	rand.New(rand.NewSource(seed)).Read(payload)
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Spec   spec
		Params []byte
	}{spec{Name: name, Version: 1}, payload})
	return buf.Bytes(), err
}
