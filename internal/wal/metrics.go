package wal

import "osprey/internal/obs"

// Per-log metrics in the process-wide obs registry, prefixed with the
// log's Options.Name so the daemon's two engines ("wal.aero",
// "wal.emews") stay distinguishable on /metrics:
//
//	<name>.appends         records appended
//	<name>.bytes           framed bytes written
//	<name>.fsyncs          fsync syscalls issued
//	<name>.sync            latency of each of those flushes (histogram)
//	<name>.snapshots       snapshots written (compactions)
//	<name>.truncated_tail  damaged tails truncated + segments dropped
//	<name>.replays         recoveries performed
//	<name>.last_replay_ms  duration of the most recent replay
//	<name>.segments        live segment count
type metrics struct {
	appends      *obs.Counter
	bytes        *obs.Counter
	fsyncs       *obs.Counter
	sync         *obs.Histogram
	snapshots    *obs.Counter
	truncated    *obs.Counter
	replays      *obs.Counter
	lastReplayMS *obs.Gauge
	segments     *obs.Gauge
}

func newMetrics(name string) *metrics {
	return &metrics{
		appends:      obs.GetCounter(name + ".appends"),
		bytes:        obs.GetCounter(name + ".bytes"),
		fsyncs:       obs.GetCounter(name + ".fsyncs"),
		sync:         obs.GetHistogram(name + ".sync"),
		snapshots:    obs.GetCounter(name + ".snapshots"),
		truncated:    obs.GetCounter(name + ".truncated_tail"),
		replays:      obs.GetCounter(name + ".replays"),
		lastReplayMS: obs.GetGauge(name + ".last_replay_ms"),
		segments:     obs.GetGauge(name + ".segments"),
	}
}
