package aero

import "osprey/internal/obs"

// Process-wide AERO metrics (obs.Default registry): the event-ingestion
// and flow-trigger path of §2.2 — how many polls ran, how many turned into
// new data versions, how quickly a data update fanned out into an analysis
// dispatch, and the HTTP surface of the metadata server.
var (
	mEventsLogged  = obs.GetCounter("aero.events.logged")
	mEventsDropped = obs.GetCounter("aero.events.dropped")

	mIngestPolls    = obs.GetCounter("aero.ingest.polls")
	mIngestUpdates  = obs.GetCounter("aero.ingest.updates")
	mIngestNoChange = obs.GetCounter("aero.ingest.nochange")
	mIngestErrors   = obs.GetCounter("aero.ingest.errors")
	mIngestPoll     = obs.GetHistogram("aero.ingest.poll_seconds")

	mFlowsTriggered = obs.GetCounter("aero.flows.triggered")
	mAnalysisRuns   = obs.GetCounter("aero.analysis.runs")
	mAnalysisErrors = obs.GetCounter("aero.analysis.errors")
	mFlowMetaErrors = obs.GetCounter("aero.flow.meta_errors")
	mWatchTrigger   = obs.GetHistogram("aero.watch.trigger_seconds")

	mWatchPublished   = obs.GetCounter("aero.watch.published")
	mWatchDropped     = obs.GetCounter("aero.watch.dropped")
	mWatchSubscribers = obs.GetGauge("aero.watch.subscribers")

	mHTTPRequests = obs.GetCounter("aero.http.requests")
	mHTTPRequest  = obs.GetHistogram("aero.http.request_seconds")

	// Multi-tenant service surface: admission metering (quota.go) and
	// auth rejections (server.go middleware). Per-tenant throttle counts
	// live under aero.tenant.<tenant>.throttled, created on demand.
	mTenantRequests  = obs.GetCounter("aero.tenant.requests")
	mTenantThrottled = obs.GetCounter("aero.tenant.throttled")
	mTenantBuckets   = obs.GetGauge("aero.tenant.buckets")
	mAuthRejected    = obs.GetCounter("aero.auth.rejected")
)
