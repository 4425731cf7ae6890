package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"flock/internal/mem"
	"flock/internal/telemetry"
)

// loadGoroutines is how many closed-loop callers drive every workload.
const loadGoroutines = 2

// subWindow is the slice of a measured window that throughput, latency
// percentiles and CPU per op are first computed over (see
// endToEndMetrics).
const subWindow = time.Second

// stallLimit fails a run in which no op completes for this long.
const stallLimit = 5 * time.Second

// system is one built workload: a live deployment with its data loaded
// and one closed-loop driver per load goroutine.
type system interface {
	dep() *deployment
	// step runs load goroutine g's next op (or batch of ops) and records
	// each op in w.
	step(g int, w *worker)
	// extra adds workload counters to a probe.
	extra(map[string]float64)
	// tracing routes spans recorded off the load goroutines (server-side
	// handlers) into log, or stops recording them when log is nil.
	tracing(log *sharedSpans)
	// verify runs the output checks that need the quiesced system.
	verify() error
	// close tears the deployment down.
	close()
}

// spec describes one workload.
type spec struct {
	build func(seed uint64) (system, error)
	// traceEvery samples one op in this many for spans.
	traceEvery uint64
}

// window is one measured interval of closed-loop load.
type window struct {
	traced        bool
	workers       []*worker
	before, after probe
	elapsed       time.Duration
	spans         []span // every worker's spans, parents re-indexed
	events        []telemetry.TraceEvent
	// startCPU and cpuMarks are the process CPU time at the start and at
	// each sub-window boundary (taken by load goroutine 0).
	startCPU time.Duration
	cpuMarks []time.Duration
}

// measure drives sys with loadGoroutines closed-loop callers for d.
// A traced window also records the spans of one op in every and the
// client trace rings.
func measure(sys system, d time.Duration, traced bool, every uint64) window {
	w := window{traced: traced, workers: make([]*worker, loadGoroutines)}
	epoch := time.Now()
	var shared *sharedSpans
	for g := range w.workers {
		w.workers[g] = newWorker(int(d/subWindow) + 1)
		if traced {
			w.workers[g].tr = newSpanLog(epoch, every, 1<<18)
		}
	}
	if traced {
		shared = &sharedSpans{log: newSpanLog(epoch, 1, 1<<18)}
		sys.tracing(shared)
		for _, n := range sys.dep().clients {
			n.Trace().Enable(traceRingSample)
		}
	}
	stop := watchdog(w.workers)
	defer stop()

	w.before = sys.dep().read(sys.extra)
	w.startCPU = cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g, wk := range w.workers {
		wg.Add(1)
		go func(g int, wk *worker) {
			defer wg.Done()
			next := start.Add(subWindow)
			for {
				now := time.Now()
				for !now.Before(next) && !next.After(deadline) {
					wk.cur++
					if g == 0 {
						w.cpuMarks = append(w.cpuMarks, cpuTime())
					}
					next = next.Add(subWindow)
				}
				if !now.Before(deadline) {
					break
				}
				sys.step(g, wk)
			}
		}(g, wk)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.after = sys.dep().read(sys.extra)

	if traced {
		sys.tracing(nil)
		for _, n := range sys.dep().clients {
			n.Trace().Disable()
			w.events = append(w.events, n.Trace().Events()...)
		}
		for _, wk := range w.workers {
			base := int32(len(w.spans))
			for _, s := range wk.tr.spans {
				if s.parent >= 0 {
					s.parent += base
				}
				w.spans = append(w.spans, s)
			}
		}
		shared.mu.Lock()
		w.spans = append(w.spans, shared.log.spans...)
		shared.mu.Unlock()
	}
	return w
}

// traceRingSample keeps one request lifecycle in this many in the client
// trace rings during a traced window.
const traceRingSample = 4

// watchdog fails the process when the workers make no progress for
// stallLimit; the returned func stops it.
func watchdog(ws []*worker) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		var last int64 = -1
		lastChange := time.Now()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				var p int64
				for _, w := range ws {
					p += w.progress.Load()
				}
				if p != last {
					last, lastChange = p, now
				} else if now.Sub(lastChange) > stallLimit {
					fmt.Fprintf(os.Stderr, "livebench: no op completed for %v (%d ops so far); failing the run\n", stallLimit, p)
					os.Exit(3)
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// outcome is everything one invocation measured.
type outcome struct {
	setup      []float64 // seconds per set-up round
	plain      window    // untraced window
	traced     *window
	verifyErr  error
	leases     int64 // pooled leases still out after teardown
	peakRSSMiB float64
}

// A run builds its deployment at least minSetupRounds times, and more
// while the rounds so far took under setupBudget, up to maxSetupRounds;
// set-up time is the median round, and the last deployment is measured.
const (
	minSetupRounds = 5
	maxSetupRounds = 25
	setupBudget    = 1500 * time.Millisecond
)

// execute builds the workload, measures it and tears it down.
func execute(sp spec, seed uint64, d time.Duration, traced bool) (outcome, error) {
	var out outcome
	var sys system
	var total time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := sp.build(seed)
		if err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		total += d
		out.setup = append(out.setup, d.Seconds())
		if i+1 >= maxSetupRounds || (i+1 >= minSetupRounds && total >= setupBudget) {
			sys = s
			break
		}
		s.close()
		if n := mem.Default.Outstanding(); n != 0 {
			return out, fmt.Errorf("set-up round %d left %d pooled leases after close", i, n)
		}
		// Collect the torn-down round before the next, so neither the
		// next round's time nor the peak resident set carries its heap.
		runtime.GC()
	}
	runtime.GC()
	if !traced {
		out.plain = measure(sys, d, false, 0)
	} else {
		// The untraced window of a traced run only sets the baseline for
		// the tracing overhead, so it runs for half as long.
		out.plain = measure(sys, max(d/2, subWindow), false, 0)
		w := measure(sys, d, true, sp.traceEvery)
		out.traced = &w
	}
	out.verifyErr = sys.verify()
	sys.close()
	out.leases = mem.Default.Outstanding()
	out.peakRSSMiB = peakRSSMiB()
	return out, nil
}

// ops returns the window's completed ops, failed ops and attempts.
func (w *window) ops() (ok, failed, attempted int64) {
	for _, wk := range w.workers {
		failed += wk.failed
		attempted += wk.attempted
	}
	return attempted - failed, failed, attempted
}

// whole merges every op of the window.
func (w *window) whole() *hist {
	h := new(hist)
	for _, wk := range w.workers {
		for _, s := range wk.subs {
			h.merge(s)
		}
	}
	return h
}

// subWin is one sub-window of a measured window.
type subWin struct {
	h   *hist
	cpu time.Duration
	dur time.Duration
}

// subWindows returns the window's full sub-windows; the partial tail
// after the last one is dropped. A window shorter than one sub-window is
// returned whole.
func (w *window) subWindows() []subWin {
	n := len(w.cpuMarks)
	for _, wk := range w.workers {
		n = min(n, wk.cur)
	}
	if n == 0 {
		return []subWin{{h: w.whole(), cpu: w.after.cpu - w.before.cpu, dur: w.elapsed}}
	}
	out := make([]subWin, n)
	for k := range out {
		h := new(hist)
		for _, wk := range w.workers {
			h.merge(wk.subs[k])
		}
		prev := w.startCPU
		if k > 0 {
			prev = w.cpuMarks[k-1]
		}
		out[k] = subWin{h: h, cpu: w.cpuMarks[k] - prev, dur: subWindow}
	}
	return out
}

// rtHist returns a runtime histogram sample.
func rtHist(p probe, i int) *metrics.Float64Histogram {
	if p.rt[i].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return p.rt[i].Value.Float64Histogram()
}

func rtUint(p probe, i int) uint64 {
	if p.rt[i].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return p.rt[i].Value.Uint64()
}
