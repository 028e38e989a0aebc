package fleet

import (
	"testing"
	"time"
)

// benchHeartbeats is the heartbeat stream BenchmarkHeartbeatIntake
// cycles through: a node of 8 streams × 8 MCs, 30 scores per MC per
// heartbeat, the shape bench's synthetic edge sends. With the default
// MinCount of 32, every second heartbeat closes a window on every MC.
// Long enough that the count regressing at the wrap (a redeploy reset)
// is rare.
const benchHeartbeats = 1000

// BenchmarkHeartbeatIntake is what one heartbeat costs the controller
// from the record's payload on: the session's decode and the shard's
// drift hook, scoring the windows the heartbeat closes against their
// frozen baselines.
func BenchmarkHeartbeatIntake(b *testing.B) {
	ctrl := NewController(ControllerConfig{
		Timeout: time.Second,
		// No threshold: no event is logged, and every window is scored.
		Drift: DriftConfig{PSI: driftOff, KS: driftOff},
	})
	defer ctrl.Close()
	sh := ctrl.shards[0]
	sh.mu.Lock()
	sh.node("bench")
	sh.mu.Unlock()
	s := newSession(1, Hello{Node: "bench"}, nil, 0, 0, sh.hbGap, sh.hbHandle, sh.noteHeartbeat)
	bodies := gridHeartbeats(benchHeartbeats, 30)
	for _, body := range bodies[:4] { // freeze every baseline
		if err := s.handleHeartbeat(body); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if err := s.handleHeartbeat(bodies[4+i%(len(bodies)-4)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeartbeatEncode is what one heartbeat of that shape costs
// its sender to encode, into a buffer reused from the last one as the
// agent's writer reuses its own: the last of the intake benchmark's
// stream, whose cumulative counts have grown past a byte.
func BenchmarkHeartbeatEncode(b *testing.B) {
	var hb Heartbeat
	if err := hb.UnmarshalBinary(gridHeartbeats(benchHeartbeats, 30)[benchHeartbeats-1]); err != nil {
		b.Fatal(err)
	}
	buf, err := hb.AppendBinary(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for range b.N {
		if buf, err = hb.AppendBinary(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
