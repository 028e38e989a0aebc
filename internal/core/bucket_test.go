package core

import (
	"math"
	"testing"
)

// step is one scripted bucket operation: advance the clock or send
// bits and check the reported queueing delay.
type step struct {
	advance   float64 // seconds, applied when send == 0 && !isSend
	isSend    bool
	send      int64
	wantDelay float64 // checked on sends
}

// TestTokenBucketEdgeCases is the bucket audit as a table: zero-dt
// advances, backlog drain ordering (refill pays down backlog before
// restoring tokens), bursts smaller than a frame, and zero-bit sends
// observing the queue.
func TestTokenBucketEdgeCases(t *testing.T) {
	cases := []struct {
		name        string
		rate, burst float64
		steps       []step
		wantBacklog float64
	}{
		{
			name: "zero dt advance is a no-op",
			rate: 100, burst: 50,
			steps: []step{
				{isSend: true, send: 50, wantDelay: 0}, // drains the bucket exactly
				{advance: 0},
				{isSend: true, send: 10, wantDelay: 0.1}, // still empty: queues
			},
			wantBacklog: 10,
		},
		{
			name: "burst smaller than frame size queues the shortfall",
			rate: 1000, burst: 100,
			steps: []step{
				// 1000-bit frame against a 100-bit bucket: 900 queued,
				// 0.9 s of drain time ahead of the tail.
				{isSend: true, send: 1000, wantDelay: 0.9},
				// A second frame queues behind the first.
				{isSend: true, send: 1000, wantDelay: 1.9},
			},
			wantBacklog: 1900,
		},
		{
			name: "refill drains backlog before restoring tokens",
			rate: 100, burst: 1000,
			steps: []step{
				{isSend: true, send: 1200, wantDelay: 2}, // 200 over: 2 s backlog
				{advance: 1},                             // 100 bits refill: all go to backlog
				{isSend: true, send: 100, wantDelay: 2},  // tokens still 0: queues behind remainder
				{advance: 2},                             // 200 bits: backlog cleared exactly
				{isSend: true, send: 50, wantDelay: 0.5}, // tokens still 0 (refill spent on backlog)
			},
			wantBacklog: 50,
		},
		{
			name: "refill surplus after backlog restores tokens",
			rate: 100, burst: 100,
			steps: []step{
				{isSend: true, send: 150, wantDelay: 0.5}, // 50 queued
				{advance: 1},                           // 100 bits: 50 to backlog, 50 to tokens
				{isSend: true, send: 50, wantDelay: 0}, // covered by restored tokens
			},
			wantBacklog: 0,
		},
		{
			name: "tokens cap at burst",
			rate: 1000, burst: 100,
			steps: []step{
				{advance: 3600}, // an hour of refill still caps at 100
				{isSend: true, send: 200, wantDelay: 0.1},
			},
			wantBacklog: 100,
		},
		{
			name: "zero-bit send observes the queue without joining it",
			rate: 100, burst: 100,
			steps: []step{
				{isSend: true, send: 0, wantDelay: 0},
				{isSend: true, send: 300, wantDelay: 2},
				{isSend: true, send: 0, wantDelay: 2}, // reports the backlog's drain time
			},
			wantBacklog: 200,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newTokenBucket(tc.rate, tc.burst)
			for i, s := range tc.steps {
				if s.isSend {
					if got := b.send(s.send); math.Abs(got-s.wantDelay) > 1e-9 {
						t.Fatalf("step %d: Send(%d) delay %v, want %v", i, s.send, got, s.wantDelay)
					}
				} else {
					b.advance(s.advance)
				}
				// Invariant: positive tokens and positive backlog never
				// coexist — refill always pays the queue first.
				if b.tokens > 0 && b.backlog > 0 {
					t.Fatalf("step %d: tokens %v and backlog %v both positive", i, b.tokens, b.backlog)
				}
			}
			if math.Abs(b.backlog-tc.wantBacklog) > 1e-9 {
				t.Fatalf("final backlog %v, want %v", b.backlog, tc.wantBacklog)
			}
		})
	}
}

// TestTokenBucketContractPanics pins the constructor and negative-
// input contracts: misuse panics loudly instead of corrupting the
// virtual clock.
func TestTokenBucketContractPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero rate", func() { newTokenBucket(0, 10) })
	mustPanic("negative rate", func() { newTokenBucket(-1, 10) })
	mustPanic("zero burst", func() { newTokenBucket(10, 0) })
	mustPanic("negative dt", func() { newTokenBucket(10, 10).advance(-0.001) })
	mustPanic("negative send", func() { newTokenBucket(10, 10).send(-1) })
}

// TestTokenBucketSentBits checks that the bucket accounts every bit
// offered, queued (not yet drained) bits included: with no time
// passing, the tokens spent plus the backlog are the bits sent.
func TestTokenBucketSentBits(t *testing.T) {
	b := newTokenBucket(100, 100)
	b.send(60)
	b.send(300) // mostly queued
	if got := b.burst - b.tokens + b.backlog; got != 360 {
		t.Fatalf("spent tokens + backlog = %v, want 360 bits sent", got)
	}
}
