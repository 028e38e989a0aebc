// Package event turns per-frame binary classifications into event
// detections, implementing §3.5 of the paper: K-of-N vote smoothing to
// mask spurious misclassifications, and a transition detector that
// assigns each contiguous positive segment a monotonically increasing
// event ID.
package event

import "fmt"

// DefaultN and DefaultK are the paper's smoothing parameters: a frame
// is a detection if at least 2 of the 5 frames in its window are
// positive — "fairly aggressive false negative mitigation at the
// expense of potential false positives".
const (
	DefaultN = 5
	DefaultK = 2
)

// SmoothKofN applies K-of-N voting to a full label sequence: output
// frame i is positive when at least k of the n frames in the window
// centred on i are positive. Windows are clipped at sequence edges.
func SmoothKofN(raw []bool, n, k int) []bool {
	if n <= 0 || k <= 0 || k > n {
		panic(fmt.Sprintf("event: bad smoothing params n=%d k=%d", n, k))
	}
	half := n / 2
	out := make([]bool, len(raw))
	for i := range raw {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(raw) {
			hi = len(raw)
		}
		votes := 0
		for j := lo; j < hi; j++ {
			if raw[j] {
				votes++
			}
		}
		out[i] = votes >= k
	}
	return out
}

// Smoother is the streaming form of SmoothKofN. Frames are pushed in
// order; once a frame's full window is available the smoother emits
// its decision, so output lags input by N/2 frames. Flush drains the
// tail (whose windows are clipped on the right, matching SmoothKofN).
//
// Push and Flush are allocation-free in the steady state: raw labels
// live in a fixed ring sized by the window, and the returned decision
// slice is reused by the next Push/Flush — consume it before pushing
// the next frame.
type Smoother struct {
	n, k    int
	win     []bool // label ring; frame f lives at win[f%len(win)]
	pushed  int    // total frames pushed
	emitted int    // next frame index to decide
	dec     []Decision
}

// NewSmoother constructs a streaming K-of-N smoother.
func NewSmoother(n, k int) *Smoother {
	if n <= 0 || k <= 0 || k > n {
		panic(fmt.Sprintf("event: bad smoothing params n=%d k=%d", n, k))
	}
	// At the moment Push stores frame p, every frame back to
	// emitted-half ≤ p-2·half is still inside a future window, so at
	// most 2·half+1 ≤ n+1 labels are live at once.
	return &Smoother{n: n, k: k, win: make([]bool, n+1)}
}

// Decision is one smoothed output frame.
type Decision struct {
	// Frame is the input frame index the decision applies to.
	Frame int
	// Positive is the smoothed label.
	Positive bool
}

// Push adds the next frame's raw classification and returns any
// decisions that became final. The returned slice is reused by the
// next Push/Flush.
func (s *Smoother) Push(raw bool) []Decision {
	s.win[s.pushed%len(s.win)] = raw
	s.pushed++
	return s.drain(false)
}

// Flush returns the remaining decisions for the tail frames. The
// returned slice is reused by the next Push/Flush.
func (s *Smoother) Flush() []Decision {
	return s.drain(true)
}

func (s *Smoother) drain(flush bool) []Decision {
	half := s.n / 2
	s.dec = s.dec[:0]
	for s.emitted < s.pushed {
		frame := s.emitted
		if !flush && frame+half >= s.pushed {
			break
		}
		lo := frame - half
		if lo < 0 {
			lo = 0
		}
		hi := frame + half + 1
		if hi > s.pushed {
			hi = s.pushed
		}
		votes := 0
		for j := lo; j < hi; j++ {
			if s.win[j%len(s.win)] {
				votes++
			}
		}
		s.dec = append(s.dec, Decision{Frame: frame, Positive: votes >= s.k})
		s.emitted++
	}
	return s.dec
}

// Detector assigns monotonically increasing event IDs to contiguous
// runs of positive (smoothed) frames. IDs start at 1; 0 means "not in
// an event".
type Detector struct {
	nextID  uint64
	current uint64
}

// NewDetector constructs a transition detector.
func NewDetector() *Detector { return &Detector{nextID: 1} }

// Observe consumes the next smoothed frame label and returns the event
// ID the frame belongs to (0 if none) and whether this frame starts a
// new event.
func (d *Detector) Observe(positive bool) (id uint64, started bool) {
	if !positive {
		d.current = 0
		return 0, false
	}
	if d.current == 0 {
		d.current = d.nextID
		d.nextID++
		return d.current, true
	}
	return d.current, false
}
