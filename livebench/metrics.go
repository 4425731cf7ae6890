package main

import (
	"math"
	"sort"

	"flock/internal/telemetry"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; an untraced run
// reports exactly these.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "objects"},
	{"success_ratio", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of single layers; a traced run reports
// exactly these, from its traced window. A layer a workload does not
// reach reads 0.
var perLayer = []metricDef{
	{"p99_us", "us"},
	{"core.call_us", "us"},
	{"core.batch_submit_us", "us"},
	{"core.wait_us", "us"},
	{"core.handler_us", "us"},
	{"core.coalesce_degree", "items/msg"},
	{"core.server_degree", "items/msg"},
	{"core.credit_renewals_per_kop", "1/kop"},
	{"core.leader_stalls", "count"},
	{"core.qp_recycles", "count"},
	{"core.rpc_timeouts", "count"},
	{"core.completion_latency_us", "us"},
	{"core.leader_tenure_us", "us"},
	{"core.pipeline_depth_mean", "calls"},
	{"core.trace.enqueue_to_post_us", "us"},
	{"core.trace.post_to_complete_us", "us"},
	{"core.trace.complete_to_dispatch_us", "us"},
	{"rnic.doorbells_per_op", "1/op"},
	{"rnic.wrs_per_op", "1/op"},
	{"rnic.suppressed_cqe_share", "ratio"},
	{"fabric.packets_per_op", "1/op"},
	{"fabric.bytes_per_op", "B/op"},
	{"mem.pool_hit_rate_pct", "%"},
	{"mem.gets_per_op", "1/op"},
	{"mem.leases_after_close", "count"},
	{"cluster.put_us", "us"},
	{"cluster.get_us", "us"},
	{"cluster.repl_batch_entries_mean", "entries"},
	{"cluster.repl_batches_per_put", "1/put"},
	{"cluster.repl_flush_us", "us"},
	{"cluster.read_gate_waits_per_get", "1/get"},
	{"cluster.redirects", "count"},
	{"txn.exec_us", "us"},
	{"txn.validate_us", "us"},
	{"txn.log_us", "us"},
	{"txn.commit_us", "us"},
	{"txn.attempts_per_commit", "attempts"},
	{"txn.abort_ratio", "ratio"},
	{"txn.rpcs_per_commit", "rpcs"},
	{"txn.stranded_locks", "count"},
	{"go.sched_latency_p99_us", "us"},
	{"go.gc_cycles_per_kop", "1/kop"},
	{"go.gc_pause_p99_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.root_self_us", "us"},
	{"error_rate", "ratio"},
	{"fail.qp_broken", "count"},
	{"fail.timeout", "count"},
	{"fail.overloaded", "count"},
	{"fail.no_route", "count"},
	{"fail.retries_exhausted", "count"},
	{"fail.other", "count"},
}

// Span names; rootSpans are the per-op roots whose self time is
// trace.root_self_us.
const (
	spCall uint8 = iota
	spBatch
	spSubmit
	spWait
	spHandler
	spPut
	spGet
	spTxn
	spExec
	spValidate
	spLog
	spCommit
	spAbort
	numSpans
)

var spanNames = [numSpans]string{
	"core.call", "bench.batch", "core.batch_submit", "core.wait", "core.handler",
	"cluster.put", "cluster.get", "txn.run", "txn.exec", "txn.validate", "txn.log",
	"txn.commit", "txn.abort",
}

var rootSpans = map[uint8]bool{spCall: true, spBatch: true, spPut: true, spGet: true, spTxn: true}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// toUs converts a latency percentile in ns to µs; one that lands on
// failed ops reads as the whole window, the bound every failure missed.
func toUs(ns float64, w *window) float64 {
	if math.IsInf(ns, 1) {
		return w.elapsed.Seconds() * 1e6
	}
	return ns / 1e3
}

// endToEndMetrics computes the user-visible metrics of an untraced window
// and its tail latency, which is too unsteady on a shared host to bound
// and so is reported among the per-layer metrics.
//
// Interference from the rest of the host only ever slows a sub-window, so
// throughput, median latency, tail latency and CPU per op are read at the
// better quartile of the sub-windows: what the program costs when it gets
// the CPUs it asks for. Failed ops count in success_ratio.
func endToEndMetrics(o *outcome) (e2e map[string]float64, p99 float64) {
	w := &o.plain
	ok, failed, attempted := w.ops()
	var rate, p50s, p99s, cpus []float64
	for _, s := range w.subWindows() {
		rate = append(rate, float64(s.h.n)/s.dur.Seconds())
		// A sub-window in which no op finished (a stall) has no latency
		// or CPU per op of its own; its ops' latencies land in the next.
		if s.h.n+s.h.failed > 0 {
			p50, _ := s.h.percentile(0.50)
			p99, _ := s.h.percentile(0.99)
			p50s = append(p50s, toUs(p50, w))
			p99s = append(p99s, toUs(p99, w))
		}
		if s.h.n > 0 {
			cpus = append(cpus, s.cpu.Seconds()*1e6/float64(s.h.n))
		}
	}
	allocs := float64(rtUint(w.after, rtAllocs) - rtUint(w.before, rtAllocs))
	return map[string]float64{
		"ops_per_s":     quantile(rate, 0.75),
		"p50_us":        quantile(p50s, 0.25),
		"cpu_us_per_op": quantile(cpus, 0.25),
		"allocs_per_op": ratio(allocs, float64(ok)),
		"success_ratio": 1 - ratio(float64(failed), float64(attempted)),
		"setup_s":       quantile(append([]float64(nil), o.setup...), 0.5),
		"peak_rss_mb":   o.peakRSSMiB,
	}, quantile(p99s, 0.25)
}

// windowSummary is the whole-window view printed beside the sub-window
// figures: plain rate, percentiles and CPU per op with the sample counts.
type windowSummary struct {
	opsPerS, p50, p99, cpuPerOp float64
	samples, beyondP99          uint64
}

func summarize(w *window) windowSummary {
	h := w.whole()
	p50, _ := h.percentile(0.50)
	p99, beyond := h.percentile(0.99)
	return windowSummary{
		opsPerS: float64(h.n) / w.elapsed.Seconds(),
		p50:     toUs(p50, w), p99: toUs(p99, w),
		cpuPerOp: ratio((w.after.cpu-w.before.cpu).Seconds()*1e6, float64(h.n)),
		samples:  h.n + h.failed, beyondP99: beyond,
	}
}

// layerMetrics computes the per-layer metrics of window w; plainOps is
// the untraced window's rate, for the tracing overhead.
func layerMetrics(w *window, o *outcome, plainOps float64) map[string]float64 {
	ok, failed, attempted := w.ops()
	ops := float64(ok)
	b, a := w.before, w.after
	cnm, snm := subNM(a.clientNM, b.clientNM), subNM(a.serverNM, b.serverNM)
	tel := a.tel.Delta(b.tel)
	m := map[string]float64{}

	for name, d := range spanDurations(w.spans) {
		m[spanNames[name]+"_us"] = d
	}
	m["trace.root_self_us"] = rootSelfTime(w.spans)

	m["core.coalesce_degree"] = ratio(float64(cnm.ItemsOut), float64(cnm.MsgsOut))
	m["core.server_degree"] = ratio(float64(snm.ItemsIn), float64(snm.MsgsIn))
	m["core.credit_renewals_per_kop"] = ratio(float64(cnm.CreditRenewals+snm.CreditRenewals)*1e3, ops)
	m["core.leader_stalls"] = float64(cnm.LeaderStalls + snm.LeaderStalls)
	m["core.qp_recycles"] = float64(cnm.QPRecycles + snm.QPRecycles)
	m["core.rpc_timeouts"] = float64(cnm.RPCTimeouts + snm.RPCTimeouts)
	m["core.completion_latency_us"] = histMean(tel, "core.completion_latency_ns") / 1e3
	m["core.leader_tenure_us"] = histMean(tel, "core.leader_tenure_ns") / 1e3
	m["core.pipeline_depth_mean"] = histMean(tel, "core.pipeline_depth")
	e2p, p2c, c2d := traceStages(w.events)
	m["core.trace.enqueue_to_post_us"] = e2p
	m["core.trace.post_to_complete_us"] = p2c
	m["core.trace.complete_to_dispatch_us"] = c2d

	m["rnic.doorbells_per_op"] = ratio(float64(a.dev.Doorbells-b.dev.Doorbells), ops)
	m["rnic.wrs_per_op"] = ratio(float64(a.dev.WorkRequests-b.dev.WorkRequests), ops)
	sup := float64(a.dev.CompletionsSuppressed - b.dev.CompletionsSuppressed)
	del := float64(a.dev.CompletionsDelivered - b.dev.CompletionsDelivered)
	m["rnic.suppressed_cqe_share"] = ratio(sup, sup+del)
	m["fabric.packets_per_op"] = ratio(float64(tel.Counters["fabric.packets"]), ops)
	m["fabric.bytes_per_op"] = ratio(float64(tel.Counters["fabric.bytes"]), ops)
	gets := float64(a.pool.Gets - b.pool.Gets)
	m["mem.pool_hit_rate_pct"] = ratio(float64(a.pool.Hits-b.pool.Hits)*100, gets)
	m["mem.gets_per_op"] = ratio(gets, ops)
	m["mem.leases_after_close"] = float64(o.leases)

	puts := a.extra["puts"] - b.extra["puts"]
	kvGets := a.extra["gets"] - b.extra["gets"]
	m["cluster.repl_batch_entries_mean"] = histMean(tel, "cluster.repl_batch_entries")
	m["cluster.repl_batches_per_put"] = ratio(float64(counterSum(tel, "cluster.repl_batches")), puts)
	m["cluster.repl_flush_us"] = histMean(tel, "cluster.repl_flush_ns") / 1e3
	m["cluster.read_gate_waits_per_get"] = ratio(float64(counterSum(tel, "cluster.read_gate_waits")), kvGets)
	m["cluster.redirects"] = a.extra["redirects"] - b.extra["redirects"]

	commits := a.extra["commits"] - b.extra["commits"]
	attempts := a.extra["attempts"] - b.extra["attempts"]
	m["txn.attempts_per_commit"] = ratio(attempts, commits)
	m["txn.abort_ratio"] = ratio(a.extra["aborts"]-b.extra["aborts"], attempts)
	m["txn.rpcs_per_commit"] = ratio(a.extra["rpcs"]-b.extra["rpcs"], commits)
	m["txn.stranded_locks"] = a.extra["locked_keys"]

	m["go.sched_latency_p99_us"] = histQuantile(rtHist(a, rtSched), rtHist(b, rtSched), 0.99) * 1e6
	m["go.gc_cycles_per_kop"] = ratio(float64(rtUint(a, rtGCCycles)-rtUint(b, rtGCCycles))*1e3, ops)
	m["go.gc_pause_p99_us"] = histQuantile(rtHist(a, rtGCPause), rtHist(b, rtGCPause), 0.99) * 1e6

	if w.traced && plainOps > 0 {
		m["trace.overhead_pct"] = (plainOps - ops/w.elapsed.Seconds()) / plainOps * 100
	}
	m["error_rate"] = ratio(float64(failed), float64(attempted))
	var causes [numCauses]int64
	for _, wk := range w.workers {
		for c, n := range wk.causes {
			causes[c] += n
		}
	}
	for c, n := range causes {
		m["fail."+causeNames[c]] = float64(n)
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	return m
}

// spanDurations returns the median duration, in µs, of each span name.
func spanDurations(spans []span) map[uint8]float64 {
	by := map[uint8][]float64{}
	for _, s := range spans {
		if s.end > s.start {
			by[s.name] = append(by[s.name], float64(s.end-s.start)/1e3)
		}
	}
	out := map[uint8]float64{}
	for name, ds := range by {
		out[name] = quantile(ds, 0.5)
	}
	return out
}

// rootSelfTime is the median, in µs, over root spans of their self time:
// the root minus the time covered by its children, which are the spans
// naming it as parent plus the off-goroutine spans of the same request.
func rootSelfTime(spans []span) float64 {
	kids := map[int32][]span{}
	byReq := map[uint64][]span{}
	for _, s := range spans {
		switch {
		case s.parent >= 0:
			kids[s.parent] = append(kids[s.parent], s)
		case !rootSpans[s.name]:
			byReq[s.req] = append(byReq[s.req], s)
		}
	}
	var self []float64
	for i, s := range spans {
		if s.parent >= 0 || !rootSpans[s.name] || s.end <= s.start {
			continue
		}
		ch := append(kids[int32(i)], byReq[s.req]...)
		self = append(self, float64(selfTime(s, ch))/1e3)
	}
	return quantile(self, 0.5)
}

// traceStages reconstructs, from client trace-ring events, the median
// time a sampled request spends from TCQ enqueue to its message's
// doorbell, from doorbell to response completion, and from completion to
// dispatch to its thread, in µs. Per-message events carry no request id,
// so a request is matched to the first post on its QP at or after its
// enqueue and to the last completion on that QP at or before its dispatch.
func traceStages(events []telemetry.TraceEvent) (e2p, p2c, c2d float64) {
	type key struct {
		thread uint32
		seq    uint64
	}
	posts := map[int][]int64{}
	comps := map[int][]int64{}
	enq := map[key]telemetry.TraceEvent{}
	var disp []telemetry.TraceEvent
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.EvPost:
			posts[ev.QP] = append(posts[ev.QP], ev.TS)
		case telemetry.EvComplete:
			comps[ev.QP] = append(comps[ev.QP], ev.TS)
		case telemetry.EvEnqueue:
			enq[key{ev.Thread, ev.Seq}] = ev
		case telemetry.EvDispatch:
			disp = append(disp, ev)
		}
	}
	for _, ts := range posts {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	}
	for _, ts := range comps {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	}
	var a, b, c []float64
	for _, d := range disp {
		e, ok := enq[key{d.Thread, d.Seq}]
		if !ok {
			continue
		}
		ps, cs := posts[e.QP], comps[e.QP]
		pi := sort.Search(len(ps), func(i int) bool { return ps[i] >= e.TS })
		ci := sort.Search(len(cs), func(i int) bool { return cs[i] > d.TS }) - 1
		if pi == len(ps) || ci < 0 || cs[ci] < ps[pi] {
			continue
		}
		a = append(a, float64(ps[pi]-e.TS)/1e3)
		b = append(b, float64(cs[ci]-ps[pi])/1e3)
		c = append(c, float64(d.TS-cs[ci])/1e3)
	}
	return quantile(a, 0.5), quantile(b, 0.5), quantile(c, 0.5)
}

// finite maps a non-finite value to 0 so the result stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
