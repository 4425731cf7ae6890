package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"flock/internal/cluster"
	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/mem"
	"flock/internal/telemetry"
	"flock/internal/workload"
)

func TestPercentileAndBeyond(t *testing.T) {
	// Values below 2·subCount ns have one-nanosecond buckets, so
	// percentiles over them are exact.
	h := new(hist)
	for v := int64(1); v <= 200; v++ {
		h.add(v)
	}
	for _, tc := range []struct {
		q      float64
		v      float64
		beyond uint64
	}{{0.50, 100, 100}, {0.99, 198, 2}, {0.95, 190, 10}, {1, 200, 0}, {0.001, 1, 199}} {
		v, beyond := h.percentile(tc.q)
		if v != tc.v || beyond != tc.beyond {
			t.Errorf("q=%v: got (%v, %d), want (%v, %d)", tc.q, v, beyond, tc.v, tc.beyond)
		}
	}
	// Ties: samples in the percentile's own bucket are not beyond it.
	ties := new(hist)
	for _, v := range []int64{1, 2, 2, 2, 3} {
		ties.add(v)
	}
	if v, beyond := ties.percentile(0.5); v != 2 || beyond != 1 {
		t.Errorf("ties: got (%v, %d), want (2, 1)", v, beyond)
	}
	// Failed ops rank above every latency: with more than 1% failures
	// the 99th percentile lands on them and reads as the whole window.
	f := new(hist)
	for v := int64(1); v <= 980; v++ {
		f.add(v)
	}
	for i := 0; i < 20; i++ {
		f.addFailed()
	}
	v, beyond := f.percentile(0.99)
	if !math.IsInf(v, 1) || beyond != 0 {
		t.Errorf("failures: got (%v, %d), want (+Inf, 0)", v, beyond)
	}
	if got := toUs(v, &window{elapsed: 3 * time.Second}); got != 3e6 {
		t.Errorf("failed percentile reads %v µs, want the window (3e6)", got)
	}
	// Rank 500 falls in the two-nanosecond bucket [500, 501].
	if v, beyond := f.percentile(0.5); v != 500.5 || beyond != 499 {
		t.Errorf("median with failures: got (%v, %d), want (500.5, 499)", v, beyond)
	}
	if v, beyond := new(hist).percentile(0.5); v != 0 || beyond != 0 {
		t.Errorf("empty: got (%v, %d)", v, beyond)
	}
}

func TestHistBucketsBoundError(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 127, 128, 255, 256, 257, 1000, 20_000, 1 << 20, 1<<40 + 12345, 1<<63 - 1} {
		i := bucketOf(v)
		if i < prev || i >= histLen {
			t.Fatalf("bucket %d of %d out of order or range", i, v)
		}
		prev = i
		if got := bucketValue(i); math.Abs(got-float64(v)) > float64(v)/subCount+1 {
			t.Errorf("value %d reads back as %v", v, got)
		}
	}
	a, b := new(hist), new(hist)
	a.add(5)
	b.add(7)
	b.addFailed()
	a.merge(b)
	if a.n != 2 || a.failed != 1 || a.counts[5] != 1 || a.counts[7] != 1 {
		t.Errorf("merge: n=%d failed=%d", a.n, a.failed)
	}
}

func TestSelfTime(t *testing.T) {
	root := span{start: 0, end: 100}
	for _, tc := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{start: 10, end: 20}, {start: 50, end: 60}}, 80},
		{"overlap counted once", []span{{start: 10, end: 30}, {start: 20, end: 40}}, 70},
		{"clipped to parent", []span{{start: -5, end: 5}, {start: 90, end: 120}}, 85},
		{"nested", []span{{start: 10, end: 90}, {start: 20, end: 30}}, 20},
		{"unsorted", []span{{start: 50, end: 60}, {start: 10, end: 30}, {start: 20, end: 40}}, 60},
		{"outside", []span{{start: 200, end: 300}}, 100},
	} {
		if got := selfTime(root, tc.kids); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRootSelfTimeLinksHandlerSpansByRequest(t *testing.T) {
	spans := []span{
		{name: spCall, parent: -1, req: 7, start: 0, end: 100},
		{name: spHandler, parent: -1, req: 7, start: 40, end: 60}, // off-goroutine child
		{name: spTxn, parent: -1, req: 9, start: 0, end: 50},
		{name: spExec, parent: 2, start: 10, end: 30},
		{name: spHandler, parent: -1, req: 99, start: 0, end: 1000}, // another request's
	}
	// Self times 80 and 30 ns; the median of the two is 55 ns.
	if got := rootSelfTime(spans); got != 0.055 {
		t.Errorf("root self time %v µs, want 0.055", got)
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{core.ErrQPBroken, "qp_broken"},
		{fmt.Errorf("call: %w", core.ErrQPBroken), "qp_broken"},
		{core.ErrTimeout, "timeout"},
		{fmt.Errorf("x: %w", core.ErrOverloaded), "overloaded"},
		{cluster.ErrNoRoute, "no_route"},
		{fmt.Errorf("%w: 101 attempts", errRetriesExhausted), "retries_exhausted"},
		{errors.New("cluster: put status 3"), "other"},
		{core.ErrConnClosed, "other"},
	} {
		if got := causeNames[classify(tc.err)]; got != tc.want {
			t.Errorf("%v: cause %s, want %s", tc.err, got, tc.want)
		}
	}
	w := newWorker(1)
	w.fail(core.ErrQPBroken)
	w.fail(core.ErrQPBroken)
	w.fail(errors.New("boom"))
	w.ok(time.Microsecond)
	if w.attempted != 4 || w.failed != 3 || w.causes[causeQPBroken] != 2 || w.causes[causeOther] != 1 {
		t.Errorf("worker counts: attempted %d failed %d causes %v", w.attempted, w.failed, w.causes)
	}
	if h := w.subs[0]; h.n != 1 || h.failed != 3 {
		t.Errorf("histogram: %d completed, %d failed; want 1, 3", h.n, h.failed)
	}
}

func TestTraceStages(t *testing.T) {
	ev := func(ts int64, k telemetry.EventKind, qp int, thread uint32, seq uint64) telemetry.TraceEvent {
		return telemetry.TraceEvent{TS: ts, Kind: k, QP: qp, Thread: thread, Seq: seq}
	}
	events := []telemetry.TraceEvent{
		ev(1000, telemetry.EvEnqueue, 2, 5, 8),
		ev(500, telemetry.EvPost, 2, 5, 0), // before the enqueue: not this request's
		ev(3000, telemetry.EvPost, 2, 5, 0),
		ev(3000, telemetry.EvPost, 1, 5, 0), // another QP
		ev(13000, telemetry.EvComplete, 2, 0, 0),
		ev(14000, telemetry.EvDispatch, -1, 5, 8),
		ev(20000, telemetry.EvComplete, 2, 0, 0), // after the dispatch
	}
	e2p, p2c, c2d := traceStages(events)
	if e2p != 2 || p2c != 10 || c2d != 1 {
		t.Errorf("stages (%v, %v, %v) µs, want (2, 10, 1)", e2p, p2c, c2d)
	}
}

// runSteps drives sys directly from load goroutine 0 for n steps.
func runSteps(sys system, n int) *worker {
	w := newWorker(1)
	for i := 0; i < n; i++ {
		sys.step(0, w)
	}
	return w
}

func TestEchoCheckFires(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     echoConfig
		corrupt bool
	}{
		{"sync", echoConfig{size: 64}, false},
		{"batch", echoConfig{size: 256, batch: 16}, false},
		{"sync flipped byte", echoConfig{size: 64, respond: flipLastByte}, true},
		{"batch flipped byte", echoConfig{size: 1024, batch: 16, respond: flipLastByte}, true},
		{"misrouted", echoConfig{size: 64, respond: wrongRequestID}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := buildEcho(1, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := runSteps(e, 20)
			e.close()
			if got := w.wrong != nil; got != tc.corrupt {
				t.Fatalf("check fired = %v (%v), want %v", got, w.wrong, tc.corrupt)
			}
			if w.attempted == 0 {
				t.Fatal("no ops ran")
			}
			if n := mem.Default.Outstanding(); n != 0 {
				t.Fatalf("%d pooled leases after close", n)
			}
		})
	}
}

func flipLastByte(req []byte) []byte {
	out := append([]byte(nil), req...)
	out[len(out)-1] ^= 1
	return out
}

func wrongRequestID(req []byte) []byte {
	out := append([]byte(nil), req...)
	binary.LittleEndian.PutUint64(out, binary.LittleEndian.Uint64(out)+1)
	return out
}

// mapKV is an in-memory kvStore; stale makes every Get return the value
// before the latest put.
type mapKV struct {
	m     map[uint64]uint64
	stale bool
}

func (s *mapKV) Put(k, v uint64) error { s.m[k] = v; return nil }

func (s *mapKV) Get(k uint64) (uint64, bool, error) {
	v, ok := s.m[k]
	if s.stale && v > 0 {
		v--
	}
	return v, ok, nil
}

func TestKVStaleReadFires(t *testing.T) {
	for _, stale := range []bool{false, true} {
		c := newKVClient(&mapKV{m: map[uint64]uint64{}, stale: stale}, 0, 1)
		if err := c.load(); err != nil {
			t.Fatal(err)
		}
		w := newWorker(1)
		for i := 0; i < 10; i++ {
			c.step(w, uint64(i+1))
		}
		if got := w.wrong != nil; got != stale {
			t.Errorf("stale=%v: check fired = %v (%v)", stale, got, w.wrong)
		}
	}
}

func TestKVLiveRunAndReplicaCheck(t *testing.T) {
	k, err := buildKV(3)
	if err != nil {
		t.Fatal(err)
	}
	w := runSteps(k, 200)
	if w.wrong != nil || w.failed != 0 {
		t.Fatalf("live kv: wrong=%v failed=%d", w.wrong, w.failed)
	}
	if err := k.verify(); err != nil {
		t.Fatalf("replicas of a quiesced cluster differ: %v", err)
	}
	// A backup that diverges from its primary must fail the check.
	err = replicasMatch(k.m, func(id fabric.NodeID, shard int) uint64 {
		fp := k.svcs[id].ShardFingerprint(shard)
		if shard == 5 && id != k.m.Owner(shard) {
			fp++
		}
		return fp
	})
	if err == nil {
		t.Fatal("diverged backup passed the replica check")
	}
	k.close()
	if n := mem.Default.Outstanding(); n != 0 {
		t.Fatalf("%d pooled leases after close", n)
	}
}

func TestSmallbankLedgerFires(t *testing.T) {
	s, err := buildSmallbank(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	w := runSteps(s, 200)
	if w.failed != 0 {
		t.Fatalf("%d transactions failed: %v", w.failed, w.firstErr)
	}
	if err := s.verify(); err != nil {
		t.Fatalf("balanced ledger failed the check: %v", err)
	}
	// Unbalance the ledger: credit one account on its primary and on its
	// replica, outside any transaction.
	key := workload.CheckingKey(17)
	p := s.cfg.PartitionOf(key)
	credit := func(srv int) {
		var buf [8]byte
		if _, err := s.servers[srv].Store(p).Get(key, buf[:]); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(buf[:], binary.LittleEndian.Uint64(buf[:])+1)
		if err := s.servers[srv].Store(p).Apply(key, buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	// A lock left behind by a failed transaction is counted, and does not
	// by itself unbalance the ledger.
	if err := s.servers[p].Store(p).Lock(key); err != nil {
		t.Fatal(err)
	}
	if n := s.lockedKeys(); n != 1 {
		t.Fatalf("%d locked keys, want 1", n)
	}
	if err := s.verify(); err != nil {
		t.Fatalf("stranded lock failed the ledger check: %v", err)
	}
	if err := s.servers[p].Store(p).Unlock(key, nil); err != nil {
		t.Fatal(err)
	}
	credit(p)
	if err := s.verify(); err == nil {
		t.Fatal("unbalanced ledger passed the check")
	}
	// Balance the primary again by the replica's lights: now only the
	// replica is short, which the replica comparison must catch.
	for _, r := range s.cfg.ReplicasOf(p) {
		credit(r)
	}
	s.clients[0].deltaSum++
	if err := s.verify(); err != nil {
		t.Fatalf("rebalanced ledger failed: %v", err)
	}
	credit(s.cfg.ReplicasOf(p)[0])
	if err := s.verify(); err == nil {
		t.Fatal("replica that differs from its primary passed the check")
	}
}

func TestRunReportsCorrectAndLeaseGate(t *testing.T) {
	o, err := execute(workloads["echo-sync"], 1, 300*time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := report(io.Discard, "echo-sync", 1, &o, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 {
		t.Fatalf("clean run reported correct=%v attempted=%d", res.Correct, res.Attempted)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("traced run lacks per-layer metric %s", d.name)
		}
	}
	if got := res.Metrics["core.coalesce_degree"].Value; got < 0.99 || got > 1.01 {
		t.Errorf("echo-sync coalescing degree %v, want 1", got)
	}
	o.leases = 2
	if res, _ := report(io.Discard, "echo-sync", 1, &o, t.TempDir()); res.Correct {
		t.Fatal("a run that leaked pooled leases reported correct")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the benchmark's
// caller reads, in step with the metrics and workloads defined here.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestQuantile(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50}
	for _, tc := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.125, 15}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("q=%v: %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("even-count median: %v", got)
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("single value: %v", got)
	}
}
