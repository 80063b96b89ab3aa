package runtime

import (
	"strconv"

	"repro/internal/obs"
)

// metrics caches the registry instruments the executor updates on its
// hot paths; nil fields (no ExecOptions.Reg) cost one branch per site.
// Every instrument is named "runtime.*" (see docs/OBSERVABILITY.md).
type metrics struct {
	submitted  *obs.Counter
	executed   *obs.Counter
	stallNs    *obs.Counter
	busyNs     *obs.Counter
	deps       *obs.Counter
	chainFused *obs.Counter
	queueDepth *obs.Gauge
	queuePeak  *obs.Gauge
	running    *obs.Gauge
	peak       *obs.Gauge
	stallHist  *obs.Histogram
	taskHist   *obs.Histogram
	workerBusy []*obs.Counter
}

// newMetrics wires the full instrument set.
func newMetrics(reg *obs.Registry, workers int) metrics {
	const name = "runtime"
	// runtime.executed registers last, so a scrape that shows it shows
	// every runtime family (histograms included).
	m := metrics{
		stallHist:  reg.Histogram(name+".stall_ns", nil),
		taskHist:   reg.Histogram(name+".task_ns", nil),
		queueDepth: reg.Gauge(name + ".queue_depth"),
		queuePeak:  reg.Gauge(name + ".queue_depth_peak"),
		running:    reg.Gauge(name + ".running"),
		peak:       reg.Gauge(name + ".peak_concurrency"),
		workerBusy: make([]*obs.Counter, workers),
	}
	reg.Gauge(name + ".workers").Set(int64(workers))
	for w := 0; w < workers; w++ {
		m.workerBusy[w] = reg.Counter(name + ".worker_busy_ns." + strconv.Itoa(w))
	}
	m.submitted = reg.Counter(name + ".submitted")
	m.stallNs = reg.Counter(name + ".stall_ns_total")
	m.busyNs = reg.Counter(name + ".busy_ns_total")
	m.deps = reg.Counter(name + ".deps_resolved")
	m.chainFused = reg.Counter(name + ".chain_fused")
	m.executed = reg.Counter(name + ".executed")
	return m
}
