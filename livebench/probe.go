package main

import (
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"flock/internal/core"
	"flock/internal/mem"
	"flock/internal/rnic"
	"flock/internal/telemetry"
)

// deployment is the live part every workload shares: one in-process
// network, the nodes that generate load and the nodes that serve it.
type deployment struct {
	net     *core.Network
	clients []*core.Node
	servers []*core.Node
}

// probe is a point-in-time read of counters the process and the program
// already keep; two probes bracket a measured window.
type probe struct {
	cpu      time.Duration
	rt       []metrics.Sample
	clientNM core.NodeMetrics
	serverNM core.NodeMetrics
	dev      rnic.Counters
	tel      telemetry.Snapshot
	pool     mem.Stats
	extra    map[string]float64 // workload-specific counters
}

// Runtime metrics the benchmark reads. The GC pause series moved in Go
// 1.22; gcPauseMetric picks whichever this runtime has.
const (
	rtAllocs = iota
	rtGCCycles
	rtSched
	rtGCPause
)

func runtimeSamples() []metrics.Sample {
	names := []string{"/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles", "/sched/latencies:seconds", gcPauseMetric()}
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	return s
}

func gcPauseMetric() string {
	for _, d := range metrics.All() {
		if d.Name == "/sched/pauses/total/gc:seconds" {
			return d.Name
		}
	}
	return "/gc/pauses:seconds"
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func addNM(a *core.NodeMetrics, b core.NodeMetrics) {
	a.MsgsIn += b.MsgsIn
	a.ItemsIn += b.ItemsIn
	a.MsgsOut += b.MsgsOut
	a.ItemsOut += b.ItemsOut
	a.CreditRenewals += b.CreditRenewals
	a.QPRecycles += b.QPRecycles
	a.RPCTimeouts += b.RPCTimeouts
	a.LeaderStalls += b.LeaderStalls
}

func subNM(a, b core.NodeMetrics) core.NodeMetrics {
	return core.NodeMetrics{
		MsgsIn: a.MsgsIn - b.MsgsIn, ItemsIn: a.ItemsIn - b.ItemsIn,
		MsgsOut: a.MsgsOut - b.MsgsOut, ItemsOut: a.ItemsOut - b.ItemsOut,
		CreditRenewals: a.CreditRenewals - b.CreditRenewals,
		QPRecycles:     a.QPRecycles - b.QPRecycles,
		RPCTimeouts:    a.RPCTimeouts - b.RPCTimeouts,
		LeaderStalls:   a.LeaderStalls - b.LeaderStalls,
	}
}

func addDev(a *rnic.Counters, b rnic.Counters) {
	a.Doorbells += b.Doorbells
	a.WorkRequests += b.WorkRequests
	a.CompletionsDelivered += b.CompletionsDelivered
	a.CompletionsSuppressed += b.CompletionsSuppressed
}

// read takes a probe of d; extra adds workload-specific counters.
func (d *deployment) read(extra func(map[string]float64)) probe {
	p := probe{rt: runtimeSamples(), extra: map[string]float64{}}
	for _, n := range d.clients {
		addNM(&p.clientNM, n.Metrics())
		addDev(&p.dev, n.Device().Stats())
	}
	for _, n := range d.servers {
		addNM(&p.serverNM, n.Metrics())
		addDev(&p.dev, n.Device().Stats())
	}
	p.tel = d.net.TelemetrySnapshot()
	p.pool = mem.Default.Stats()
	if extra != nil {
		extra(p.extra)
	}
	metrics.Read(p.rt)
	p.cpu = cpuTime()
	return p
}

// histMean is the mean, across nodes, of every histogram whose name
// ends in suffix (per-node series are prefixed "node<id>.").
func histMean(s telemetry.Snapshot, suffix string) float64 {
	var n, sum uint64
	for name, h := range s.Hists {
		if strings.HasSuffix(name, suffix) {
			n += h.Count
			sum += h.Sum
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// counterSum adds, across nodes, every counter whose name ends in suffix.
func counterSum(s telemetry.Snapshot, suffix string) uint64 {
	var n uint64
	for name, v := range s.Counters {
		if strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return n
}

// histQuantile returns the q-quantile of a runtime histogram delta
// (cur − prev), as the upper edge of its bucket, in seconds.
func histQuantile(cur, prev *metrics.Float64Histogram, q float64) float64 {
	if cur == nil {
		return 0
	}
	var total uint64
	counts := make([]uint64, len(cur.Counts))
	for i := range cur.Counts {
		counts[i] = cur.Counts[i]
		if prev != nil && i < len(prev.Counts) {
			counts[i] -= prev.Counts[i]
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= target {
			hi := cur.Buckets[i+1]
			if hi > 1e300 { // +Inf: report the bucket's lower edge
				return cur.Buckets[i]
			}
			return hi
		}
	}
	return cur.Buckets[len(cur.Buckets)-1]
}
