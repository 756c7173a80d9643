package checkd

import "parallaft/internal/telemetry"

// checkdMetrics bundles the daemon-side instrument handles, resolved once
// per Executor/Server from Options.Metrics. All nil (no-op) without a
// registry. Gauges are additive so every executor sharing a registry —
// the socket server opens one per connection — composes into daemon-wide
// totals.
type checkdMetrics struct {
	queueDepth  *telemetry.Gauge
	workers     *telemetry.Gauge
	busyWorkers *telemetry.Gauge

	submitted  *telemetry.Counter
	rejections *telemetry.Counter

	verdictsOK    *telemetry.Counter
	verdictsFail  *telemetry.Counter
	verdictsInfra *telemetry.Counter

	verdictLatency *telemetry.Histogram

	framesRead    *telemetry.Counter
	framesWritten *telemetry.Counter
	bytesRead     *telemetry.Counter
	bytesWritten  *telemetry.Counter
}

func newCheckdMetrics(reg *telemetry.Registry) checkdMetrics {
	var m checkdMetrics
	if reg == nil {
		return m
	}
	m.queueDepth = reg.Gauge("paft_checkd_queue_depth",
		"check packets accepted but not yet picked up by a worker")
	m.workers = reg.Gauge("paft_checkd_workers",
		"replay workers currently alive across all executors")
	m.busyWorkers = reg.Gauge("paft_checkd_busy_workers",
		"replay workers currently checking a packet")
	m.submitted = reg.Counter("paft_checkd_packets_submitted_total",
		"check packets accepted into the intake queue")
	m.rejections = reg.Counter("paft_checkd_rejections_total",
		"packets rejected at intake (version or config-digest mismatch)")
	m.verdictsOK = reg.Counter("paft_checkd_verdicts_ok_total",
		"verdicts delivered with a passing comparison")
	m.verdictsFail = reg.Counter("paft_checkd_verdicts_failed_total",
		"verdicts delivered reporting a divergence")
	m.verdictsInfra = reg.Counter("paft_checkd_verdicts_infra_total",
		"verdicts delivered reporting an infrastructure failure")
	m.verdictLatency = reg.Histogram("paft_checkd_verdict_latency_seconds",
		"wall time from packet submission to ordered verdict delivery",
		telemetry.ExpBuckets(1e-5, 4, 12))
	m.framesRead = reg.Counter("paft_checkd_frames_read_total",
		"transport frames read from clients")
	m.framesWritten = reg.Counter("paft_checkd_frames_written_total",
		"transport frames written to clients")
	m.bytesRead = reg.Counter("paft_checkd_bytes_read_total",
		"transport payload bytes read from clients (including frame headers)")
	m.bytesWritten = reg.Counter("paft_checkd_bytes_written_total",
		"transport payload bytes written to clients (including frame headers)")
	return m
}

// observeVerdict counts a delivered verdict by class.
func (m *checkdMetrics) observeVerdict(v Verdict) {
	switch {
	case v.Infra != "":
		m.verdictsInfra.Inc()
	case v.OK:
		m.verdictsOK.Inc()
	default:
		m.verdictsFail.Inc()
	}
}
