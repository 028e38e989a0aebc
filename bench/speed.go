package main

import "time"

// The box this benchmark runs on changes speed under single-threaded
// work: while the second core idles, the host clocks the busy one up
// for seconds to minutes at a time, and the same instructions then run
// up to 30 % faster. A fixed kernel of the harness's own, timed in
// short bursts between the measured operations, follows those changes
// to within ~3 %. So the two single-stream workloads report their
// end-to-end timings at reference CPU speed: a part's throughput is
// divided, and its latencies multiplied, by the speed the bursts around
// it measured. The values as measured and the speed go to standard
// error, and bench.cpu_speed reports the speed in the traced run.
//
// The two workloads that keep both cores busy are reported as
// measured: the host does not boost them (ten runs of one seed spread
// by 2-4 %), and a burst there would share its core with the program's
// own background threads and measure them, not the clock.

// refNominal is the reference kernel's rate, in calls per second, at
// the speed this box sustains when it is not boosting; measured once on
// the commit that added the benchmark and frozen. A speed of 1.2 means
// the kernel ran 20 % faster than that.
const refNominal = 580_000

// burst is how long one speed measurement runs.
const burst = 2 * time.Millisecond

var (
	refBuf  = refInput()
	refSink float32
)

func refInput() []float32 {
	buf := make([]float32, 4096) // 16 KB: stays in L1, evicts little of the program's data
	for i := range buf {
		buf[i] = float32(i%7) * 0.125
	}
	return buf
}

// refKernel is a scalar multiply-add loop that depends on the core's
// clock and on nothing the program under test owns.
func refKernel() {
	var a0, a1, a2, a3 float32
	for i := 0; i+3 < len(refBuf); i += 4 {
		a0 += refBuf[i] * 1.0001
		a1 += refBuf[i+1] * 0.9999
		a2 += refBuf[i+2] * 1.0002
		a3 += refBuf[i+3] * 0.9998
	}
	refSink = a0 + a1 + a2 + a3
}

// cpuSpeed times the reference kernel for one burst on the calling
// goroutine and returns its rate over refNominal.
func cpuSpeed() float64 {
	calls := 0
	t0 := time.Now()
	var d time.Duration
	for d < burst {
		for k := 0; k < 16; k++ {
			refKernel()
		}
		calls += 16
		d = time.Since(t0)
	}
	return float64(calls) / d.Seconds() / refNominal
}

// numParts is how many equal parts a timed phase is cut into; the
// reported throughput is the median part's. On a shared 2-core box a
// neighbour's burst slows a second or two of a run, and the median
// part does not see it.
const numParts = 24

// slicer measures the throughput of each part of a timed phase and,
// when atRef is set, the CPU speed around it.
type slicer struct {
	atRef              bool
	parts, total, done int
	last               time.Time
	lastOps            int
	raw                []float64 // throughput of each part as measured
	ends               []int     // operations finished when each part ended
	bursts             []float64 // CPU speed before the first part and after each part
}

// newSlicer cuts total operations into parts; the first speed burst
// runs here, before the phase's clock starts.
func newSlicer(total, parts int, atRef bool) *slicer {
	s := &slicer{atRef: atRef, parts: parts, total: total}
	s.burst()
	s.last = time.Now()
	return s
}

// burst measures the CPU speed now, or notes 1 on a workload that is
// reported as measured.
func (s *slicer) burst() {
	speed := 1.0
	if s.atRef {
		speed = cpuSpeed()
	}
	s.bursts = append(s.bursts, speed)
}

// tick records one finished operation. At the end of a part it runs a
// speed burst, which stays outside every part's time, and returns how
// long the burst took.
func (s *slicer) tick() time.Duration {
	s.done++
	if s.done*s.parts/s.total <= len(s.raw) {
		return 0
	}
	end := time.Now()
	s.raw = append(s.raw, float64(s.done-s.lastOps)/end.Sub(s.last).Seconds())
	s.ends = append(s.ends, s.done)
	s.burst()
	s.last, s.lastOps = time.Now(), s.done
	return s.last.Sub(end)
}

// smooth is how many neighbouring bursts a speed is the median of: one
// 2 ms burst is off by a few percent, which would land in the latency
// tail, and a change of clock lasts longer than three bursts.
const smooth = 5

// speeds returns the mean CPU speed over each part: the mean of the
// smoothed bursts before and after it.
func (s *slicer) speeds() []float64 {
	sm := make([]float64, len(s.bursts))
	for k := range sm {
		sm[k] = median(s.bursts[max(0, k-smooth/2):min(len(s.bursts), k+smooth/2+1)])
	}
	out := make([]float64, len(s.raw))
	for i := range out {
		out[i] = (sm[i] + sm[i+1]) / 2
	}
	return out
}

// rates returns the throughput of each part at reference CPU speed.
func (s *slicer) rates() []float64 {
	out := s.speeds()
	for i, speed := range out {
		out[i] = s.raw[i] / speed
	}
	return out
}

// atReference returns lat with every sample scaled to reference CPU
// speed by the speed of the part it fell into; sample i covers
// operations [i*per, (i+1)*per).
func (s *slicer) atReference(lat []time.Duration, per int) []time.Duration {
	speeds := s.speeds()
	out := make([]time.Duration, len(lat))
	part := 0
	for i, d := range lat {
		for part < len(s.ends)-1 && i*per >= s.ends[part] {
			part++
		}
		speed := 1.0
		if part < len(speeds) {
			speed = speeds[part]
		}
		out[i] = time.Duration(float64(d) * speed)
	}
	return out
}

// split cuts lat into the samples of each part; sample i covers
// operations [i*per, (i+1)*per).
func (s *slicer) split(lat []time.Duration, per int) [][]time.Duration {
	out := make([][]time.Duration, 0, len(s.ends))
	lo := 0
	for _, end := range s.ends {
		hi := min(end/per, len(lat))
		out = append(out, lat[lo:hi])
		lo = hi
	}
	return out
}
