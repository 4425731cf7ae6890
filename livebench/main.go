package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloads are the benchmark's inputs; BENCHMARK.json gives the reason
// for each.
var workloads = map[string]spec{
	"echo-sync": {traceEvery: 8, build: func(seed uint64) (system, error) {
		return buildEcho(seed, echoConfig{size: 64})
	}},
	"echo-batch": {traceEvery: 8, build: func(seed uint64) (system, error) {
		return buildEcho(seed, echoConfig{size: 256, batch: 16})
	}},
	// kv-repl alternates puts and gets, so it samples one op in an odd
	// number to trace both.
	"kv-repl": {traceEvery: 5, build: func(seed uint64) (system, error) {
		return buildKV(seed)
	}},
	"smallbank": {traceEvery: 1, build: func(seed uint64) (system, error) {
		return buildSmallbank(seed)
	}},
}

// processDeadline bounds a whole invocation; a run that reaches it has
// hung in set-up or teardown and fails.
const processDeadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: echo-sync, echo-batch, kv-repl or smallbank")
	seed := flag.Uint64("seed", 1, "seed for payload bytes, key order and the transaction mix")
	seconds := flag.Float64("seconds", 15, "length of each measured window")
	trace := flag.Int("trace", 0, "1 adds a traced window and reports per-layer metrics")
	spansDir := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced window's spans are written to")
	flag.Parse()
	sp, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "livebench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	time.AfterFunc(processDeadline, func() {
		fmt.Fprintf(os.Stderr, "livebench: run exceeded %v; failing it\n", processDeadline)
		os.Exit(4)
	})

	out, err := execute(sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res, err := report(os.Stdout, *name, *seed, &out, *spansDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the host, every metric of every window and every failed
// check, and returns the JSON result: end-to-end metrics for an untraced
// run, per-layer metrics of the traced window for a traced one.
func report(wr io.Writer, name string, seed uint64, o *outcome, spansDir string) (result, error) {
	fmt.Fprintf(wr, "host %s\n", hostLine())
	fmt.Fprintf(wr, "run workload=%s seed=%d goroutines=%d setup_rounds=%d setup_s=%v\n",
		name, seed, loadGoroutines, len(o.setup), o.setup)

	e2e, p99 := endToEndMetrics(o)
	printWindow(wr, "untraced", &o.plain)
	printMetrics(wr, "", endToEnd, e2e)
	plainLayer := layerMetrics(&o.plain, o, 0)
	plainLayer["p99_us"] = p99
	printMetrics(wr, "untraced ", perLayer, plainLayer)

	var layer map[string]float64
	if o.traced != nil {
		printWindow(wr, "traced", o.traced)
		fmt.Fprintf(wr, "window traced spans=%d trace_events=%d\n", len(o.traced.spans), len(o.traced.events))
		layer = layerMetrics(o.traced, o, summarize(&o.plain).opsPerS)
		layer["p99_us"] = p99 // from the untraced window
		printMetrics(wr, "traced ", perLayer, layer)
		extraSpans(wr, layer)
		if err := writeSpans(spansDir, name, seed, o.traced.spans); err != nil {
			return result{}, err
		}
	}

	correct := true
	var attempted, failed int64
	for _, w := range []*window{&o.plain, o.traced} {
		if w == nil {
			continue
		}
		_, f, a := w.ops()
		attempted += a
		failed += f
		for _, wk := range w.workers {
			if wk.wrong != nil {
				correct = false
				fmt.Fprintf(wr, "check FAILED output: %v\n", wk.wrong)
			}
			for c, err := range wk.firstErr {
				if err != nil {
					fmt.Fprintf(wr, "failure cause=%s first=%q\n", causeNames[c], err.Error())
				}
			}
		}
	}
	if o.verifyErr != nil {
		correct = false
		fmt.Fprintf(wr, "check FAILED quiesced state: %v\n", o.verifyErr)
	}
	if o.leases != 0 {
		correct = false
		fmt.Fprintf(wr, "check FAILED teardown: %d pooled leases outstanding\n", o.leases)
	}
	fmt.Fprintf(wr, "checks correct=%v attempted=%d failed=%d leases_after_close=%d\n", correct, attempted, failed, o.leases)

	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, e2e
	if o.traced != nil {
		defs, vals = perLayer, layer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: finite(vals[d.name]), Unit: d.unit}
	}
	return res, nil
}

// printWindow prints a window's whole-window figures with their sample
// counts, and each sub-window's throughput, p99 latency and CPU per op.
func printWindow(wr io.Writer, label string, w *window) {
	sum := summarize(w)
	fmt.Fprintf(wr, "window %s elapsed_s=%.3f samples=%d beyond_p99=%d whole_ops_per_s=%.1f whole_p50_us=%.2f whole_p99_us=%.2f whole_cpu_us_per_op=%.3f\n",
		label, w.elapsed.Seconds(), sum.samples, sum.beyondP99, sum.opsPerS, sum.p50, sum.p99, sum.cpuPerOp)
	var rates, p99s, cpus []string
	for _, s := range w.subWindows() {
		v, _ := s.h.percentile(0.99)
		rates = append(rates, fmt.Sprintf("%.0f", float64(s.h.n)/s.dur.Seconds()))
		p99s = append(p99s, fmt.Sprintf("%.0f", toUs(v, w)))
		cpus = append(cpus, fmt.Sprintf("%.2f", ratio(s.cpu.Seconds()*1e6, float64(s.h.n))))
	}
	fmt.Fprintf(wr, "window %s sub_windows=%d ops_per_s=[%s] p99_us=[%s] cpu_us_per_op=[%s]\n",
		label, len(rates), strings.Join(rates, " "), strings.Join(p99s, " "), strings.Join(cpus, " "))
}

func printMetrics(wr io.Writer, prefix string, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(wr, "%smetric %s %.6g %s\n", prefix, d.name, vals[d.name], d.unit)
	}
}

// extraSpans prints span medians that have no per-layer metric of their
// own (the batch root, transaction roots and aborts).
func extraSpans(wr io.Writer, layer map[string]float64) {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	var names []string
	for n := range layer {
		if !known[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(wr, "traced metric %s %.6g us\n", n, layer[n])
	}
}

// writeSpans writes the traced window's spans as CSV, one span a line.
func writeSpans(dir, name string, seed uint64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "index,name,parent,request,start_ns,end_ns")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d\n", i, spanNames[s.name], s.parent, s.req, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostLine names the host a result was measured on.
func hostLine() string {
	host, _ := os.Hostname()
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("name=%s cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		host, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
