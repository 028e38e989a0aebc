package core

import "fmt"

// tokenBucket models the bandwidth-constrained uplink between an edge
// node and the datacenter (§2.2.1): a link of a fixed rate with a
// bounded burst allowance. Sends never fail; they queue, and the
// bucket reports the queueing delay each send would experience.
type tokenBucket struct {
	rate  float64 // sustained link rate, bits per second
	burst float64 // bucket depth, bits

	tokens  float64
	now     float64 // virtual clock, seconds
	backlog float64 // bits waiting beyond the bucket
}

// newTokenBucket constructs a full bucket.
func newTokenBucket(rate, burst float64) *tokenBucket {
	if rate <= 0 || burst <= 0 {
		panic(fmt.Sprintf("core: bad token bucket rate=%v burst=%v", rate, burst))
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

// advance moves the virtual clock forward by dt seconds, refilling
// tokens and draining backlog.
func (b *tokenBucket) advance(dt float64) {
	if dt < 0 {
		panic("core: negative time step")
	}
	b.now += dt
	refill := b.rate * dt
	if b.backlog > 0 {
		drained := refill
		if drained > b.backlog {
			refill = drained - b.backlog
			b.backlog = 0
		} else {
			b.backlog -= drained
			refill = 0
		}
	}
	b.tokens += refill
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// send enqueues bits for transmission and returns the queueing delay
// in seconds this data experiences (0 when the bucket covers it).
func (b *tokenBucket) send(bits int64) float64 {
	if bits < 0 {
		panic("core: negative send")
	}
	f := float64(bits)
	if f <= b.tokens {
		b.tokens -= f
		return b.backlog / b.rate
	}
	short := f - b.tokens
	b.tokens = 0
	b.backlog += short
	return b.backlog / b.rate
}
