package main

import (
	"math"
	"regexp"
	"sort"
	"time"

	"osprey/internal/obs"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first. It stops at p99: beyond it a 10 s run on a shared 2-core
// box measures the neighbours more than the system.
var tailLadder = []float64{99, 95, 90, 80, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least ten of n samples beyond it (choosing-metrics §1). Below 20
// samples only the median qualifies.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if leavesTen(n, p) {
			return p
		}
	}
	return 50
}

// leavesTen reports whether n samples leave at least ten beyond the p-th
// percentile.
func leavesTen(n int, p float64) bool { return float64(n)*(100-p)/100 >= 10 }

// tailGroups pools the latencies (ms) of consecutive segments into groups
// that each leave at least ten samples beyond the p-th percentile, so a
// tail taken per group obeys the same rule as one taken over the run. A
// last group too small for that joins the one before it.
func tailGroups(segs []segment, p float64) [][]float64 {
	var groups [][]float64
	var cur []float64
	for _, s := range segs {
		cur = append(cur, durationsMS(s.lat)...)
		if leavesTen(len(cur), p) {
			groups = append(groups, cur)
			cur = nil
		}
	}
	switch n := len(groups); {
	case len(cur) == 0:
	case n == 0:
		groups = append(groups, cur)
	default:
		groups[n-1] = append(groups[n-1], cur...)
	}
	return groups
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// interval is a half-open wall-clock span [start, end) in nanoseconds
// since an arbitrary origin.
type interval struct{ start, end int64 }

// union merges overlapping intervals into a sorted disjoint list.
func union(iv []interval) []interval {
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var out []interval
	for _, x := range s {
		if x.end <= x.start {
			continue
		}
		if n := len(out); n > 0 && x.start <= out[n-1].end {
			if x.end > out[n-1].end {
				out[n-1].end = x.end
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// measure is the total length of a disjoint interval list.
func measure(iv []interval) int64 {
	var total int64
	for _, x := range iv {
		total += x.end - x.start
	}
	return total
}

// overlap is the length of the intersection of two disjoint sorted lists.
func overlap(a, b []interval) int64 {
	var total int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := max(a[i].start, b[j].start)
		hi := min(a[i].end, b[j].end)
		if hi > lo {
			total += hi - lo
		}
		if a[i].end < b[j].end {
			i++
		} else {
			j++
		}
	}
	return total
}

// selfTimes computes each layer's self time: the wall time during which at
// least one span of the layer is open and no span of any of its descendant
// layers is (choosing-metrics §4, generalised to concurrent spans by
// taking unions). children maps a layer to its direct child layers.
func selfTimes(spans []span, children map[string][]string) map[string]time.Duration {
	byLayer := map[string][]interval{}
	for _, s := range spans {
		byLayer[s.Layer] = append(byLayer[s.Layer], interval{s.Start, s.End})
	}
	var descendants func(layer string, seen map[string]bool) []interval
	descendants = func(layer string, seen map[string]bool) []interval {
		var out []interval
		for _, c := range children[layer] {
			if seen[c] {
				continue
			}
			seen[c] = true
			out = append(out, byLayer[c]...)
			out = append(out, descendants(c, seen)...)
		}
		return out
	}
	self := map[string]time.Duration{}
	for layer, iv := range byLayer {
		own := union(iv)
		below := union(descendants(layer, map[string]bool{layer: true}))
		self[layer] = time.Duration(measure(own) - overlap(own, below))
	}
	return self
}

// histDelta is the change of one obs histogram over a measured window.
type histDelta struct {
	count  int64
	sum    float64 // seconds
	counts map[float64]int64
}

// deltaHist subtracts two snapshots of the same histogram.
func deltaHist(before, after obs.HistogramSnapshot) histDelta {
	d := histDelta{
		count:  after.Count - before.Count,
		sum:    after.SumSeconds - before.SumSeconds,
		counts: map[float64]int64{},
	}
	for _, b := range after.Buckets {
		d.counts[b.LeSeconds] += b.Count
	}
	for _, b := range before.Buckets {
		d.counts[b.LeSeconds] -= b.Count
	}
	return d
}

// quantile estimates the q-quantile in seconds from the bucket deltas, by
// the same linear interpolation inside a log-scale bucket that obs uses.
func (d histDelta) quantile(q float64) float64 {
	if d.count <= 0 {
		return 0
	}
	bounds := make([]float64, 0, len(d.counts))
	for le := range d.counts {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	rank := q * float64(d.count)
	var cum int64
	for i, le := range bounds {
		n := d.counts[le]
		if n <= 0 {
			continue
		}
		prev := cum
		cum += n
		if float64(cum) < rank {
			continue
		}
		lower := le / 2 // obs buckets are powers of two in microseconds
		switch {
		case le <= 1e-6:
			lower = 0
		case math.IsInf(le, 1): // the overflow bucket: report its floor
			if i > 0 {
				return bounds[i-1]
			}
			return 0
		}
		return lower + (rank-float64(prev))/float64(n)*(le-lower)
	}
	return bounds[len(bounds)-1]
}

// add accumulates another window's change of the same histogram.
func (d *histDelta) add(o histDelta) {
	d.count += o.count
	d.sum += o.sum
	if d.counts == nil {
		d.counts = map[float64]int64{}
	}
	for le, n := range o.counts {
		d.counts[le] += n
	}
}

// obsWindow is an obs registry snapshot taken at the start of a measured
// window.
type obsWindow struct{ start obs.Snapshot }

func openObsWindow() obsWindow { return obsWindow{obs.Default().Snapshot()} }

// close returns the registry's change since the window opened.
func (w obsWindow) close() obsDelta {
	end := obs.Default().Snapshot()
	d := obsDelta{counters: map[string]int64{}, hists: map[string]histDelta{}}
	for name, v := range end.Counters {
		d.counters[name] = v - w.start.Counters[name]
	}
	for name, h := range end.Histograms {
		d.hists[name] = deltaHist(w.start.Histograms[name], h)
	}
	return d
}

// obsDelta is the change of the obs counters and histograms over one or
// more measured windows.
type obsDelta struct {
	counters map[string]int64
	hists    map[string]histDelta
}

// add accumulates another window's change.
func (d *obsDelta) add(o obsDelta) {
	if d.counters == nil {
		d.counters, d.hists = map[string]int64{}, map[string]histDelta{}
	}
	for name, v := range o.counters {
		d.counters[name] += v
	}
	for name, h := range o.hists {
		sum := d.hists[name]
		sum.add(h)
		d.hists[name] = sum
	}
}

func (d obsDelta) counter(name string) int64  { return d.counters[name] }
func (d obsDelta) hist(name string) histDelta { return d.hists[name] }

// closedLoop is the window accounting of a loop measured over a fixed
// wall-clock window [from, to): an op counts, with its full latency, when
// it completes inside the window, whenever it started. Ops completing
// during warm-up or the drain after the window are not counted.
// The window is cut into equal segments by completion time.
type closedLoop struct {
	from, to time.Time
	segs     []segment
}

func newClosedLoop(from, to time.Time, segments int) *closedLoop {
	c := &closedLoop{from: from, to: to, segs: make([]segment, max(segments, 1))}
	for i := range c.segs {
		c.segs[i].busy = to.Sub(from) / time.Duration(len(c.segs))
	}
	return c
}

func (c *closedLoop) observe(start, end time.Time) {
	if end.Before(c.from) || !end.Before(c.to) {
		return
	}
	i := min(int(end.Sub(c.from)/c.segs[0].busy), len(c.segs)-1)
	c.segs[i].lat = append(c.segs[i].lat, end.Sub(start))
}

// wireShare is the share of client round-trip time not spent inside the
// server's request handling: codec, socket and scheduling cost, in percent
// of the round trip. Both sums cover the same requests and window.
func wireShare(clientSeconds, serverSeconds float64) float64 {
	return pct(clientSeconds-serverSeconds, clientSeconds)
}

// metricName is the rule every metric name obeys.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// pct returns 100·part/whole, or 0 when whole is 0.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// ratio returns part/whole, or 0 when whole is 0.
func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}
