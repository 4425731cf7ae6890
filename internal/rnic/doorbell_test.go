package rnic

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"flock/internal/fabric"
	"flock/internal/mem"
	"flock/internal/telemetry"
)

// TestInlineDoorbellExecutesBeforeReturn checks that a write posted to an
// idle device is placed, and its signaled completion pushed, by the time
// PostSend returns, with the same doorbell accounting as the pipeline.
func TestInlineDoorbellExecutesBeforeReturn(t *testing.T) {
	d1, d2 := testPair(t, fabric.Config{}, Config{}, Config{})
	qa, _, err := ConnectPair(d1, d2, RC)
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := d2.RegisterMR(64, PermRemoteWrite)
	if err := qa.PostSend(
		SendWR{WRID: 1, Op: OpWrite, Inline: []byte("inline!!"), RKey: remote.RKey()},
		SendWR{WRID: 2, Op: OpWrite, Inline: []byte("doorbell"), RKey: remote.RKey(), RemoteOff: 8, Signaled: true},
	); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	remote.ReadAt(got, 0) //nolint:errcheck
	if string(got) != "inline!!doorbell" {
		t.Fatalf("write not placed before PostSend returned: %q", got)
	}
	if n := qa.SendCQ().Len(); n != 1 {
		t.Fatalf("%d completions pushed before PostSend returned, want 1", n)
	}
	st := d1.Stats()
	if st.Doorbells != 1 || st.WorkRequests != 2 || st.Processed != 2 || st.InlineDoorbells != 1 {
		t.Fatalf("counters: doorbells=%d wrs=%d processed=%d inline=%d, want 1/2/2/1",
			st.Doorbells, st.WorkRequests, st.Processed, st.InlineDoorbells)
	}
	reg := telemetry.New()
	d1.PublishTelemetry(reg, "rnic.")
	if got := reg.Snapshot().Counters["rnic.inline_doorbells"]; got != 1 {
		t.Fatalf("telemetry rnic.inline_doorbells = %d, want 1", got)
	}
}

// TestBusyDeviceQueuesDoorbell holds the processing unit, as an inline
// drain on another goroutine would, and checks that posts queue to the
// pipeline and that one QP's completions keep their post order across a
// mix of queued and inline doorbells.
func TestBusyDeviceQueuesDoorbell(t *testing.T) {
	d1, d2 := testPair(t, fabric.Config{}, Config{}, Config{})
	qa, _, err := ConnectPair(d1, d2, RC)
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := d2.RegisterMR(64, PermRemoteWrite)
	post := func(id uint64) {
		t.Helper()
		if err := qa.PostSend(SendWR{WRID: id, Op: OpWrite, Inline: []byte{byte(id)}, RKey: remote.RKey(), Signaled: true}); err != nil {
			t.Fatal(err)
		}
	}

	d1.execMu.Lock()
	post(1)
	post(2)
	time.Sleep(2 * time.Millisecond)
	if n := qa.SendCQ().Len(); n != 0 {
		d1.execMu.Unlock()
		t.Fatalf("%d completions while the processing unit was held", n)
	}
	if st := d1.Stats(); st.InlineDoorbells != 0 || st.Processed != 0 {
		d1.execMu.Unlock()
		t.Fatalf("busy device ran work on the poster: %+v", st)
	}
	d1.execMu.Unlock()
	expect := func(from, to uint64) {
		t.Helper()
		for want := from; want <= to; want++ {
			if c := pollOne(t, qa.SendCQ()); c.WRID != want || c.Status != StatusOK {
				t.Fatalf("completion %+v, want WRID %d ok", c, want)
			}
		}
	}
	expect(1, 2)
	d1.Quiesce()

	// Idle device: each post runs on the poster.
	for id := uint64(3); id <= 10; id++ {
		post(id)
	}
	if st := d1.Stats(); st.InlineDoorbells != 8 {
		t.Fatalf("inline doorbells = %d on an idle device, want 8", st.InlineDoorbells)
	}
	// Queued posts followed at once by posts that may find the unit free:
	// the QP's order must hold across the hand-over.
	d1.execMu.Lock()
	post(11)
	post(12)
	d1.execMu.Unlock()
	for id := uint64(13); id <= 40; id++ {
		post(id)
	}
	expect(3, 40)
	d1.Quiesce()
	if st := d1.Stats(); st.Processed != 40 || st.InlineDoorbells >= st.Doorbells {
		t.Fatalf("processed=%d inline=%d doorbells=%d", st.Processed, st.InlineDoorbells, st.Doorbells)
	}
}

// TestRNRSendNeverRunsOnPoster posts an RC send before its receive: the
// send waits in receiver-not-ready, so it must run on the pipeline, not
// block the poster (which here is the goroutine that posts the receive).
func TestRNRSendNeverRunsOnPoster(t *testing.T) {
	d1, d2 := testPair(t, fabric.Config{}, Config{}, Config{})
	qa, qb, _ := ConnectPair(d1, d2, RC)
	rbuf, _ := d2.RegisterMR(64, 0)
	if err := qa.PostSend(SendWR{WRID: 1, Op: OpSend, Inline: []byte("late"), Signaled: true}); err != nil {
		t.Fatal(err)
	}
	if err := qb.PostRecv(RecvWR{WRID: 2, MR: rbuf, Len: 64}); err != nil {
		t.Fatal(err)
	}
	if c := pollOne(t, qa.SendCQ()); c.Status != StatusOK {
		t.Fatalf("send posted before its receive failed: %+v", c)
	}
	if c := pollOne(t, qb.RecvCQ()); c.Status != StatusOK || c.ByteLen != 4 {
		t.Fatalf("receive completion %+v", c)
	}
	if st := d1.Stats(); st.InlineDoorbells != 0 {
		t.Fatalf("a send that may wait for a receive ran inline (%d)", st.InlineDoorbells)
	}
}

// TestFaultPlanDisablesInlineDoorbells checks that with a fault plan
// installed every post takes the pipeline path — transmitRC may sleep
// on injected delay or backoff — and that clearing it re-enables inline
// execution.
func TestFaultPlanDisablesInlineDoorbells(t *testing.T) {
	fab := fabric.New(fabric.Config{})
	d1, err := NewDevice(fab, Config{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDevice(fab, Config{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d1.Close(); d2.Close() })
	qa, _, _ := ConnectPair(d1, d2, RC)
	remote, _ := d2.RegisterMR(64, PermRemoteWrite)
	post := func(id uint64) {
		t.Helper()
		if err := qa.PostSend(SendWR{WRID: id, Op: OpWrite, Inline: []byte{1}, RKey: remote.RKey(), Signaled: true}); err != nil {
			t.Fatal(err)
		}
		pollOne(t, qa.SendCQ())
	}

	fab.SetFaultPlan(&fabric.FaultPlan{Seed: 1})
	for id := uint64(1); id <= 8; id++ {
		post(id)
	}
	if st := d1.Stats(); st.InlineDoorbells != 0 || st.Doorbells != 8 {
		t.Fatalf("with a fault plan: inline=%d doorbells=%d, want 0/8", st.InlineDoorbells, st.Doorbells)
	}
	fab.SetFaultPlan(nil)
	post(9)
	if st := d1.Stats(); st.InlineDoorbells != 1 {
		t.Fatalf("after clearing the plan: inline=%d, want 1", st.InlineDoorbells)
	}
}

// TestCloseDuringInlineDrainReleasesLeases races Close against posters
// that drain inline with pooled payloads. Close must not return while a
// poster still drains (no WR executes after it returns), and every lease
// must be released exactly once: executed, swept by Close, or kept by the
// caller on ErrDeviceClosed.
func TestCloseDuringInlineDrainReleasesLeases(t *testing.T) {
	for round := 0; round < 20; round++ {
		before := mem.Default.Outstanding()
		fab := fabric.New(fabric.Config{})
		d1, err := NewDevice(fab, Config{Node: 1})
		if err != nil {
			t.Fatal(err)
		}
		d2, err := NewDevice(fab, Config{Node: 2})
		if err != nil {
			t.Fatal(err)
		}
		remote, _ := d2.RegisterMR(64<<10, PermRemoteWrite)
		var wg sync.WaitGroup
		for p := 0; p < 3; p++ {
			qa, _, err := ConnectPair(d1, d2, RC)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					b := mem.Get(16 << 10)
					wr := SendWR{Op: OpWrite, Inline: b.Data(), Pooled: b, RKey: remote.RKey()}
					if err := qa.PostSend(wr); err != nil {
						b.Release()
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		d1.Close()
		processed := d1.Stats().Processed
		wg.Wait()
		if got := d1.Stats().Processed; got != processed {
			t.Fatalf("round %d: %d WRs executed after Close returned", round, got-processed)
		}
		d2.Close()
		if got := mem.Default.Outstanding(); got != before {
			t.Fatalf("round %d: %d pooled leases outstanding after Close, want %d", round, got, before)
		}
	}
}

// TestRNRWaitBoundedInTime checks that the receiver-not-ready budget is
// wall time (RNRRetries × rnrInterval), not RNRRetries timer sleeps: on a
// host whose sleeps overshoot, a count-only budget lasted about 100×
// longer. The wait must end within twice its nominal budget and still
// make at least RNRRetries attempts.
func TestRNRWaitBoundedInTime(t *testing.T) {
	cfg := Config{RNRRetries: 1000}
	d1, d2 := testPair(t, fabric.Config{}, cfg, Config{})
	qa, _, _ := ConnectPair(d1, d2, RC)
	budget := time.Duration(cfg.RNRRetries) * rnrInterval
	start := time.Now()
	if err := qa.PostSend(SendWR{WRID: 1, Op: OpSend, Inline: []byte("x"), Signaled: true}); err != nil {
		t.Fatal(err)
	}
	// Poll with yields: a hot spin could hold the pipeline goroutine,
	// readied on this goroutine's processor, off the CPU.
	var cq [1]Completion
	for qa.SendCQ().Poll(cq[:]) == 0 {
		if time.Since(start) > time.Minute {
			t.Fatal("no completion for an RNR wait")
		}
		runtime.Gosched()
	}
	c := cq[0]
	elapsed := time.Since(start)
	if c.Status != StatusRNRExceeded {
		t.Fatalf("status = %v, want rnr-exceeded", c.Status)
	}
	if elapsed > 2*budget {
		t.Fatalf("RNR wait took %v, nominal budget %v", elapsed, budget)
	}
	if elapsed < budget {
		t.Fatalf("RNR wait gave up after %v, before its %v budget", elapsed, budget)
	}
	if w := d1.Stats().RNRWaits; w < uint64(cfg.RNRRetries) {
		t.Fatalf("%d RNR retries, want at least %d", w, cfg.RNRRetries)
	}
}

// TestWriteGenerationAdvancesOnEveryStore checks that every path that
// stores into a region advances its write generation — the idle-poll gate
// of ring consumers skips reading a region whose generation is unchanged,
// so a store that did not advance it could be slept through.
func TestWriteGenerationAdvancesOnEveryStore(t *testing.T) {
	d1, d2 := testPair(t, fabric.Config{}, Config{}, Config{})
	qa, _, err := ConnectPair(d1, d2, RC)
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := d2.RegisterMR(64, PermRemoteRead|PermRemoteWrite|PermRemoteAtomic)
	local, _ := d1.RegisterMR(64, 0)
	advances := func(name string, mr *MemRegion, store func()) {
		t.Helper()
		before := mr.Writes()
		store()
		if mr.Writes() == before {
			t.Fatalf("%s did not advance the write generation", name)
		}
	}
	post := func(wr SendWR) func() {
		return func() {
			wr.Signaled = true
			if err := qa.PostSend(wr); err != nil {
				t.Fatal(err)
			}
			if c := pollOne(t, qa.SendCQ()); c.Status != StatusOK {
				t.Fatalf("%s: %+v", wr.Op, c)
			}
		}
	}
	advances("WriteAt", local, func() { local.WriteAt([]byte{1}, 0) }) //nolint:errcheck
	advances("Store64", local, func() { local.Store64(8, 2) })
	advances("CAS64", local, func() { local.CAS64(8, 2, 3) })
	advances("inbound RDMA write", remote, post(SendWR{Op: OpWrite, Inline: []byte("w"), RKey: remote.RKey()}))
	advances("RDMA read landing locally", local, post(SendWR{Op: OpRead, LocalMR: local, LocalOff: 16, LocalLen: 8, RKey: remote.RKey()}))
	advances("fetch-add (responder)", remote, post(SendWR{Op: OpFetchAdd, LocalMR: local, LocalOff: 24, RKey: remote.RKey(), RemoteOff: 32, CompareAdd: 1}))
	advances("fetch-add result (requester)", local, post(SendWR{Op: OpFetchAdd, LocalMR: local, LocalOff: 24, RKey: remote.RKey(), RemoteOff: 32, CompareAdd: 1}))
	advances("cmp-swap (responder)", remote, post(SendWR{Op: OpCmpSwap, LocalMR: local, LocalOff: 24, RKey: remote.RKey(), RemoteOff: 32, CompareAdd: 2, Swap: 9}))
	if got := remote.Load64(32); got != 9 {
		t.Fatalf("atomics left %d, want 9", got)
	}
}

// TestCQPollAfterEmptySeesPush checks the lock-free empty Poll: a push
// made after an empty poll is seen by the next one.
func TestCQPollAfterEmptySeesPush(t *testing.T) {
	cq := NewCQ(8)
	var buf [4]Completion
	if cq.Poll(buf[:]) != 0 {
		t.Fatal("poll of a new CQ returned entries")
	}
	cq.push(Completion{WRID: 5})
	if n := cq.Poll(buf[:]); n != 1 || buf[0].WRID != 5 {
		t.Fatalf("poll after push = %d (%+v)", n, buf[0])
	}
	if cq.Poll(buf[:]) != 0 || cq.Len() != 0 {
		t.Fatal("drained CQ not empty")
	}

	// Concurrently: every pushed entry is polled exactly once.
	const total = 2000
	big := NewCQ(total)
	go func() {
		for i := 1; i <= total; i++ {
			big.push(Completion{WRID: uint64(i)})
		}
	}()
	next := uint64(1)
	deadline := time.Now().Add(10 * time.Second)
	for next <= total {
		n := big.Poll(buf[:])
		for _, c := range buf[:n] {
			if c.WRID != next {
				t.Fatalf("polled WRID %d, want %d", c.WRID, next)
			}
			next++
		}
		if n == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("stalled at WRID %d", next)
			}
			runtime.Gosched()
		}
	}
}
