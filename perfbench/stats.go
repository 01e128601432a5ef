package main

import (
	"fmt"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianSetup runs set-up reps times and returns the median duration
// in seconds together with the last repetition's product.
func medianSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// windows collects a closed loop's statistics per window (a pass over
// the inputs, a round, or a stretch of requests), so the reported
// median, throughput and peak memory are medians over windows and a
// window slowed by other load on the host moves them little. A run
// with reference parses has its timings scaled to the reference host's
// speed (see calib.go); one without is reported as measured.
type windows struct {
	lat, cal         []float64 // this window's latencies; the run's reference parses, ms
	busy             time.Duration
	good             int
	all              []float64 // every finished window's latencies, ms
	p50, rate, peaks []float64 // one per finished window
}

// begin starts a window and resets the process's peak RSS, so the
// window's peak is its own.
func (w *windows) begin() {
	w.lat, w.busy, w.good = w.lat[:0], 0, 0
	resetPeakRSS("self")
}

// op records one operation's latency and whether it succeeded.
func (w *windows) op(d time.Duration, ok bool) {
	w.lat = append(w.lat, ms(d))
	w.busy += d
	if ok {
		w.good++
	}
}

// calibrate times n reference parses.
func (w *windows) calibrate(n int) { w.cal = refParses(w.cal, n) }

// end closes the window.
func (w *windows) end() error {
	rss, err := peakRSSMiB("self")
	if err != nil {
		return err
	}
	w.all = append(w.all, w.lat...)
	w.p50 = append(w.p50, median(w.lat))
	w.rate = append(w.rate, float64(w.good)/w.busy.Seconds())
	w.peaks = append(w.peaks, rss)
	return nil
}

// report prints the measured figures and the host's speed, and adds the
// latency and throughput metrics, scaled by that speed.
func (w *windows) report(rep *report) {
	p50, p98, rate := median(w.p50), quantile(w.all, 0.98), median(w.rate)
	fmt.Printf("measured: op p50 %.4g ms, p98 %.4g ms, %.4g good op/s (median of %d windows)\n",
		p50, p98, rate, len(w.p50))
	if len(w.cal) > 0 {
		f := speed(w.cal)
		fmt.Printf("host speed %.3f of the reference (%d reference parses); the metrics below are scaled by it\n", f, len(w.cal))
		p50, p98, rate = p50*f, p98*f, rate/f
	}
	rep.add("op_ms_p50", p50, "ms", len(w.all))
	rep.add("op_ms_p98", p98, "ms", len(w.all))
	rep.add("good_ops_per_s", rate, "op/s", len(w.all))
}
