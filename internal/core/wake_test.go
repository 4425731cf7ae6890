package core

import (
	"runtime"
	"testing"
	"time"

	"flock/internal/fabric"
	"flock/internal/rnic"
)

// Lost-wake-up tests for the event-driven pollers: every poller parks on
// its device's event count after a few idle spins, so each test first
// waits until the relevant pollers are actually parked and then checks
// that the event it depends on still gets through.

// wakeDeadline bounds every call in these tests: a lost wake-up shows as a
// call that never returns, so the deadline turns a hang into a failure.
const wakeDeadline = 10 * time.Second

// waitParked waits until at least want waiters are armed on n's device.
func waitParked(t *testing.T, n *Node, want int) {
	t.Helper()
	waitFor(t, "pollers to park", func() bool { return n.dev.Events().Armed() >= want })
}

// parkedEchoCluster connects one client thread over a single QP, warms
// the path, and returns once the client dispatcher and the server
// dispatcher and QP scheduler are parked.
func parkedEchoCluster(t *testing.T, opts Options) (*testCluster, *Conn, *Thread) {
	t.Helper()
	opts.QPsPerConn = 1
	tc := newTestCluster(t, 1, opts, opts)
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	callOK(t, th, "warm")
	waitParked(t, tc.clients[0], 1)
	waitParked(t, tc.server, 2)
	return tc, conn, th
}

// callOK makes one echo call that must succeed within wakeDeadline.
func callOK(t *testing.T, th *Thread, payload string) {
	t.Helper()
	r, err := th.CallWithDeadline(echoID, []byte(payload), wakeDeadline)
	if err != nil {
		t.Fatalf("call %q: %v", payload, err)
	}
	if string(r.Data) != payload {
		t.Fatalf("echo %q, want %q", r.Data, payload)
	}
	r.Release()
}

func TestParkedDispatcherServesAfterIdleGap(t *testing.T) {
	tc, _, th := parkedEchoCluster(t, Options{})
	before := tc.server.tel.Snapshot().Counters["core.poller_wakeups"]
	callOK(t, th, "after-gap")
	for _, n := range []*Node{tc.server, tc.clients[0]} {
		s := n.tel.Snapshot()
		if s.Counters["core.poller_parks"] == 0 || s.Counters["core.poller_wakeups"] == 0 {
			t.Fatalf("node %d: parks=%d wakeups=%d, want both > 0", n.ID(),
				s.Counters["core.poller_parks"], s.Counters["core.poller_wakeups"])
		}
	}
	if after := tc.server.tel.Snapshot().Counters["core.poller_wakeups"]; after <= before {
		t.Fatalf("server wakeups %d -> %d: the request was not served by a woken dispatcher", before, after)
	}
}

func TestParkedPollersWakeAfterClientRecycle(t *testing.T) {
	tc, conn, th := parkedEchoCluster(t, Options{FlapThreshold: -1})
	conn.markBroken(conn.qps[0])
	waitFor(t, "client recycle", func() bool { return tc.clients[0].Metrics().QPRecycles >= 1 })
	waitParked(t, tc.clients[0], 1)
	waitParked(t, tc.server, 2)
	callOK(t, th, "after-client-recycle")
}

// TestParkedThreadWakesAfterServerRecycle holds the server end of the
// only QP inside a dispatcher critical section, so the client's recycle
// stalls in the server-side handshake. A call issued meanwhile finds no
// usable QP and parks; releasing the server end lets both recycles finish,
// and their signals must wake the parked thread and pollers.
func TestParkedThreadWakesAfterServerRecycle(t *testing.T) {
	tc, conn, th := parkedEchoCluster(t, Options{FlapThreshold: -1})
	sqp := tc.server.snapshotSconns()[0].qps[0]
	if !sqp.enter() {
		t.Fatal("server QP unexpectedly broken")
	}
	released := false
	defer func() {
		if !released {
			sqp.exit()
		}
	}()
	conn.markBroken(conn.qps[0])
	waitFor(t, "server recycle to start", func() bool { return sqp.broken.Load() })

	done := make(chan error, 1)
	go func() {
		r, err := th.CallWithDeadline(echoID, []byte("after-server-recycle"), wakeDeadline)
		if err == nil {
			if string(r.Data) != "after-server-recycle" {
				t.Errorf("echo %q", r.Data)
			}
			r.Release()
		}
		done <- err
	}()
	// Client dispatcher and the calling thread both park.
	waitParked(t, tc.clients[0], 2)
	select {
	case err := <-done:
		t.Fatalf("call returned (%v) while its only QP was under recycle", err)
	default:
	}
	released = true
	sqp.exit()
	if err := <-done; err != nil {
		t.Fatalf("parked call after recycle: %v", err)
	}
	if tc.server.Metrics().QPRecycles == 0 || tc.clients[0].Metrics().QPRecycles == 0 {
		t.Fatal("recycle did not complete on both ends")
	}
}

// TestParkedSchedulerGrantsRenewals runs far past the initial credit
// budget with the scheduler tick effectively off and every call issued
// only after the server's pollers parked: each renewal write-imm must
// wake the parked QP scheduler.
func TestParkedSchedulerGrantsRenewals(t *testing.T) {
	tc, _, th := parkedEchoCluster(t, Options{Credits: 4, SchedInterval: time.Hour})
	for i := 0; i < 24; i++ {
		waitParked(t, tc.server, 2)
		callOK(t, th, "credit")
	}
	if tc.server.Metrics().CreditRenewals == 0 {
		t.Fatal("no credit renewals granted")
	}
}

// TestParkedFlusherWakesOnRoutedRefresh parks a worker's response flush
// on a full ring whose head refresh is already in flight, then routes that
// refresh from another goroutine, as the server dispatcher does when it
// takes the completion off the shared send CQ first. The completion's own
// device signal came before the flusher sampled the generation, so only
// the routed refresh can wake it.
func TestParkedFlusherWakesOnRoutedRefresh(t *testing.T) {
	tc, conn, th := parkedEchoCluster(t, Options{
		Workers: 1, MaxPayload: 64, RingBytes: 4 << 10, SchedInterval: time.Hour,
	})
	sqp := tc.server.snapshotSconns()[0].qps[0]
	// Wrap the response ring once so a full-looking cached head is a
	// valid (older) head.
	for i := 0; ; i++ {
		sqp.respMu.Lock()
		wrapped := sqp.respProd.tail >= uint64(sqp.respProd.size)
		sqp.respMu.Unlock()
		if wrapped {
			break
		}
		callOK(t, th, "fill")
	}
	waitParked(t, tc.server, 2)

	// The client stops consuming as far as the server knows: its published
	// head (piggybacked on requests) and the server's cached copy lag a
	// full ring, and a refresh is in flight whose result, the client's
	// real head, sits in the readback slot.
	sqp.respMu.Lock()
	full := sqp.respProd.tail - uint64(sqp.respProd.size)
	ctrl := conn.qps[0].ctrl
	sqp.readback.Store64(0, ctrl.Load64(ctrlRespHeadOff))
	ctrl.Store64(ctrlRespHeadOff, full)
	sqp.respProd.cached.Store(full)
	sqp.refresh.Store(true)
	sqp.respMu.Unlock()

	done := make(chan error, 1)
	go func() {
		r, err := th.CallWithDeadline(echoID, []byte("after-refresh"), wakeDeadline)
		if err == nil {
			if string(r.Data) != "after-refresh" {
				t.Errorf("echo %q", r.Data)
			}
			r.Release()
		}
		done <- err
	}()
	// Server dispatcher, QP scheduler and the worker's flush all park.
	waitParked(t, tc.server, 3)
	select {
	case err := <-done:
		t.Fatalf("call returned (%v) while its response ring looked full", err)
	default:
	}
	sqp.routeCompletion(rnic.Completion{WRID: tagFresh, Status: rnic.StatusOK})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call after routed refresh: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked flusher not woken by the routed head refresh")
	}
	if n := tc.server.Metrics().QPRecycles + tc.clients[0].Metrics().QPRecycles; n != 0 {
		t.Fatalf("%d QP recycles: the call was rescued by recovery, not the wake-up", n)
	}
}

// TestParkedRecvResWakesOnCompletion keeps eight SendRPCs outstanding
// against a worker-mode server whose handler yields, so completions land
// while RecvRes scans, raises its flag or parks on the table's slot token.
// A completer that sent the slot token before the record's token would
// lose a wake-up here: RecvRes would wake, find no record token, and park
// again with nothing left to wake it.
func TestParkedRecvResWakesOnCompletion(t *testing.T) {
	const yieldID, window, rounds = 31, 8, 10000
	tc := newTestCluster(t, 1, Options{Workers: 2}, Options{})
	tc.server.RegisterHandler(yieldID, func(req []byte) []byte {
		runtime.Gosched()
		return req
	})
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	// The window is a few instructions wide, so many rounds are needed to
	// hit it; the time cap keeps race-detector runs short.
	start := time.Now()
	for r := 0; r < rounds && time.Since(start) < time.Second; r++ {
		for k := 0; k < window; k++ {
			if _, err := th.SendRPC(yieldID, []byte("wake")); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan error, 1)
		go func() {
			for k := 0; k < window; k++ {
				if err := recvDrop(th); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: RecvRes missed a completion (%d still in flight)", r, th.Outstanding())
		}
	}
}

func TestCloseWhileParkedExitsPollers(t *testing.T) {
	base := runtime.NumGoroutine()
	nw := NewNetwork(fabric.Config{})
	opts := Options{QPsPerConn: 2, Dispatchers: 2}
	srv, err := nw.NewNode(0, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(); err != nil {
		t.Fatal(err)
	}
	registerEcho(srv)
	cl, err := nw.NewNode(1, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	callOK(t, conn.RegisterThread(), "warm")
	waitParked(t, cl, 1)
	waitParked(t, srv, 3)

	closed := make(chan struct{})
	go func() {
		nw.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(wakeDeadline):
		t.Fatal("Network.Close hung with parked pollers")
	}
	waitFor(t, "poller goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
	if srv.dev.Events().Armed() != 0 || cl.dev.Events().Armed() != 0 {
		t.Fatal("waiters left armed after Close")
	}
}

// TestPollerParkZeroAlloc holds the park path — spins, arm, the
// poller_parks counter, wake-up and disarm — to zero allocations.
func TestPollerParkZeroAlloc(t *testing.T) {
	tc := newTestCluster(t, 0, Options{}, Options{})
	n := tc.server
	w := n.dev.Events().NewWaiter()
	tick := make(chan time.Time, 1)
	allocs := testing.AllocsPerRun(200, func() {
		tick <- time.Time{}
		if r := n.awaitEvent(w, n.dev.Events().Gen(), tick, nil); r != wakeTick {
			// A server poller's event moved the generation; drain the
			// unused tick so the next run starts clean.
			<-tick
		}
	})
	if allocs != 0 {
		t.Fatalf("park path allocates %.1f/op", allocs)
	}
	if n.tel.Snapshot().Counters["core.poller_parks"] == 0 {
		t.Fatal("park path never parked")
	}
}
