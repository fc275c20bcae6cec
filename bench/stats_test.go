package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"osprey/internal/obs"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {40, 75}, {49, 75}, {50, 80},
		{60, 80}, {99, 80}, {100, 90}, {199, 90}, {200, 95}, {999, 95},
		{1000, 99}, {1000000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.8: 4.2} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %g, want %g", q, got, want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	children := map[string][]string{"op": {"a", "b"}, "a": {"c"}}
	spans := []span{
		{Layer: "op", Start: 0, End: 100},
		{Layer: "op", Start: 50, End: 150}, // concurrent op spans: their union counts once
		{Layer: "a", Start: 10, End: 30},
		{Layer: "b", Start: 20, End: 50}, // overlaps a: the children's union is [10, 50)
		{Layer: "c", Start: 15, End: 25}, // grandchild, inside a
		{Layer: "c", Start: 200, End: 210},
	}
	self := selfTimes(spans, children)
	for layer, want := range map[string]time.Duration{
		"op": 150 - 40, // [0, 150) minus [10, 50)
		"a":  20 - 10,  // [10, 30) minus its child c's [15, 25)
		"b":  30,       // b has no children; a is its sibling, not its child
		"c":  20,
	} {
		if self[layer] != want {
			t.Errorf("self(%s) = %v, want %v", layer, self[layer], want)
		}
	}
}

func TestWireShareIsTheRoundTripNotSpentInTheServer(t *testing.T) {
	if got := wireShare(10, 7.5); got != 25 {
		t.Errorf("wireShare(10, 7.5) = %g, want 25", got)
	}
	if got := wireShare(0, 0); got != 0 {
		t.Errorf("wireShare with no client time = %g, want 0", got)
	}
}

func TestClosedLoopCountsOpsCompletingInTheWindow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	sec := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	c := newClosedLoop(sec(1), sec(3), 2)
	c.observe(sec(0.2), sec(0.9)) // warm-up: not counted
	c.observe(sec(0.5), sec(1))   // completes as the window opens: counted, full latency
	c.observe(sec(1.5), sec(1.99))
	c.observe(sec(2.5), sec(2.9))
	c.observe(sec(2.8), sec(3)) // completes as the window closes: drain, not counted
	c.observe(sec(2.9), sec(3.5))
	if len(c.segs) != 2 || c.segs[0].busy != time.Second || c.segs[1].busy != time.Second {
		t.Fatalf("segments %+v, want two of 1s", c.segs)
	}
	want := [][]time.Duration{{500 * time.Millisecond, 490 * time.Millisecond}, {400 * time.Millisecond}}
	for i, seg := range c.segs {
		if len(seg.lat) != len(want[i]) {
			t.Fatalf("segment %d latencies %v, want %v", i, seg.lat, want[i])
		}
		for j := range want[i] {
			if seg.lat[j] != want[i][j] {
				t.Errorf("segment %d latency %d = %v, want %v", i, j, seg.lat[j], want[i][j])
			}
		}
	}
}

func TestEndToEndTakesMediansOverSegments(t *testing.T) {
	seg := func(busy time.Duration, lat ...time.Duration) segment { return segment{lat: lat, busy: busy} }
	ms := time.Millisecond
	ph := &phase{segs: []segment{
		seg(time.Second, 1*ms, 2*ms, 3*ms),
		seg(time.Second, 10*ms, 20*ms), // an outlier second
		seg(time.Second, 1*ms, 1*ms, 2*ms, 2*ms),
	}}
	thr, p50, tail, used := ph.endToEnd(99)
	if thr != 3 || p50 != 2 {
		t.Errorf("throughput %g p50 %g, want the segment medians 3 and 2", thr, p50)
	}
	// Nine samples leave fewer than ten beyond p99, or beyond any
	// percentile: the tail falls back to the median of the whole run.
	if used != 50 || tail != 2 {
		t.Errorf("tail p%g = %g, want p50 = 2", used, tail)
	}
}

// TestEndToEndTailOverShortSegments has the shape of rt-campaign: segments
// of ten ops, too few for a p80 to leave ten samples beyond it. The tail
// must come from groups of segments that do, not from each segment.
func TestEndToEndTailOverShortSegments(t *testing.T) {
	ph := &phase{}
	for i := 0; i < 10; i++ {
		lat := 1 + time.Duration(i%2)*2 // alternate campaigns of 1 ms and 3 ms cycles
		s := segment{busy: time.Second}
		for j := 0; j < 10; j++ {
			s.lat = append(s.lat, lat*time.Millisecond)
		}
		ph.segs = append(ph.segs, s)
	}
	_, p50, tail, used := ph.endToEnd(80)
	// Per segment, p80 would be 1 or 3 and their median 2. Groups of five
	// campaigns hold 30 and 20 ops of 1 ms, so p80 is 3 in each.
	if used != 80 || tail != 3 {
		t.Errorf("tail p%g = %g, want p80 = 3", used, tail)
	}
	if p50 != 2 {
		t.Errorf("p50 %g, want the median over segments 2", p50)
	}
}

func TestTailGroupsLeaveTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		sizes []int
		p     float64
		want  []int
	}{
		{[]int{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, 80, []int{50, 80}}, // rt campaigns
		{[]int{3000, 2900, 3100}, 99, []int{3000, 2900, 3100}},                         // task seconds
		{[]int{1000, 1000}, 99, []int{1000, 1000}},                                     // gsa studies
		{[]int{600, 300, 200}, 99, []int{1100}},
		{[]int{4, 5}, 50, []int{9}}, // too few for any group: the whole run
	} {
		var segs []segment
		for _, n := range c.sizes {
			segs = append(segs, segment{lat: make([]time.Duration, n)})
		}
		var got []int
		for _, g := range tailGroups(segs, c.p) {
			got = append(got, len(g))
		}
		if len(got) != len(c.want) {
			t.Errorf("sizes %v at p%g: groups %v, want %v", c.sizes, c.p, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("sizes %v at p%g: groups %v, want %v", c.sizes, c.p, got, c.want)
				break
			}
		}
	}
}

func TestHistDeltaMatchesObsQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("x")
	before := reg.Snapshot().Histograms["x"]
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * 7 * time.Microsecond)
	}
	after := reg.Snapshot().Histograms["x"]
	d := deltaHist(before, after)
	if d.count != 1000 {
		t.Fatalf("count %d, want 1000", d.count)
	}
	for q, want := range map[float64]float64{0.5: after.P50Seconds, 0.9: after.P90Seconds, 0.99: after.P99Seconds} {
		if got := d.quantile(q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, obs reports %g", q, got, want)
		}
	}
	// A second window sees only its own observations.
	h.Observe(3 * time.Second)
	if d2 := deltaHist(after, reg.Snapshot().Histograms["x"]); d2.count != 1 || d2.quantile(0.5) < 2 {
		t.Errorf("second window: count %d p50 %gs, want one sample near 3s", d2.count, d2.quantile(0.5))
	}
}

func TestMetricNameRule(t *testing.T) {
	for _, ok := range []string{"setup_s", "emews.wire.pct_of_rtt", "9lives", "a-b.c_d"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	if !metricName.MatchString(strings.Repeat("x", 64)) {
		t.Error("a 64-letter name rejected")
	}
	for _, bad := range []string{"", ".x", "_x", "a b", "a/b", "p99%", strings.Repeat("x", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("declared metric %q breaks the name rule", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the metrics the benchmark emits
// and the ones BENCHMARK.json declares the same set, with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []decl, emitted []metricDef) {
		want := map[string]string{}
		for _, d := range declared {
			want[d.Name] = d.Unit
		}
		got := map[string]string{}
		for _, m := range emitted {
			got[m.name] = m.unit
		}
		for name, unit := range got {
			if u, ok := want[name]; !ok {
				t.Errorf("%s metric %q is emitted but not declared in BENCHMARK.json", kind, name)
			} else if u != unit {
				t.Errorf("%s metric %q: unit %q emitted, %q declared", kind, name, unit, u)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s metric %q is declared in BENCHMARK.json but not emitted", kind, name)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %s", names, workloadNames())
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, names[i], w.name)
		}
	}
}
