package rnic

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/fabric"
)

// wakeWithin reports whether w receives its wake token within d.
func wakeWithin(w *Waiter, d time.Duration) bool {
	select {
	case <-w.C():
		return true
	case <-time.After(d):
		return false
	}
}

func TestEventCountSignalBeforeArm(t *testing.T) {
	var e EventCount
	w := e.NewWaiter()
	seen := e.Gen()
	e.Signal()
	if w.Arm(seen) {
		t.Fatal("Arm succeeded although the generation moved past the sample")
	}
	if e.Armed() != 0 {
		t.Fatalf("refused Arm left %d waiters armed", e.Armed())
	}
	// A fresh sample parks, and the refused arm left no stale token.
	if !w.Arm(e.Gen()) {
		t.Fatal("Arm at the current generation refused")
	}
	select {
	case <-w.C():
		t.Fatal("stale wake token after a refused Arm")
	default:
	}
	w.Disarm()
	if e.Armed() != 0 {
		t.Fatalf("Disarm left %d waiters armed", e.Armed())
	}
}

func TestEventCountArmThenSignal(t *testing.T) {
	var e EventCount
	ws := []*Waiter{e.NewWaiter(), e.NewWaiter(), e.NewWaiter()}
	seen := e.Gen()
	for _, w := range ws {
		if !w.Arm(seen) {
			t.Fatal("Arm refused with no signal in between")
		}
	}
	if e.Armed() != len(ws) {
		t.Fatalf("armed %d, want %d", e.Armed(), len(ws))
	}
	e.Signal()
	for i, w := range ws {
		if !wakeWithin(w, 10*time.Second) {
			t.Fatalf("waiter %d not woken", i)
		}
	}
	if e.Armed() != 0 {
		t.Fatalf("Signal left %d waiters armed", e.Armed())
	}
	// A woken waiter re-arms cleanly; a signal-less Disarm is a no-op.
	if !ws[0].Arm(e.Gen()) {
		t.Fatal("re-Arm refused")
	}
	ws[0].Disarm()
	ws[1].Disarm()
	if e.Armed() != 0 {
		t.Fatalf("armed %d after Disarm", e.Armed())
	}
}

// TestEventCountSignalStorm races signallers against pollers that follow
// the sample/poll/arm/park protocol: every signal stands for one unit of
// work, and no poller may stay parked while work it has not seen exists.
// A lost wake-up shows up as a poller stuck past the deadline.
func TestEventCountSignalStorm(t *testing.T) {
	var e EventCount
	const signallers, perSignaller, pollers = 4, 5000, 3
	var work atomic.Int64 // units produced and not yet claimed
	var claimed atomic.Int64
	total := int64(signallers * perSignaller)

	done := make(chan struct{})
	var pw sync.WaitGroup
	for p := 0; p < pollers; p++ {
		pw.Add(1)
		go func() {
			defer pw.Done()
			w := e.NewWaiter()
			for {
				seen := e.Gen()
				for v := work.Load(); v > 0; v = work.Load() {
					if work.CompareAndSwap(v, v-1) {
						claimed.Add(1)
					}
				}
				select {
				case <-done:
					return
				default:
				}
				if !w.Arm(seen) {
					continue
				}
				select {
				case <-w.C():
				case <-done:
					w.Disarm()
					return
				}
			}
		}()
	}
	var sw sync.WaitGroup
	for s := 0; s < signallers; s++ {
		sw.Add(1)
		go func() {
			defer sw.Done()
			for i := 0; i < perSignaller; i++ {
				work.Add(1)
				e.Signal()
			}
		}()
	}
	sw.Wait()
	deadline := time.Now().Add(20 * time.Second)
	for claimed.Load() != total {
		if time.Now().After(deadline) {
			t.Fatalf("lost wake-up: claimed %d of %d units, %d armed", claimed.Load(), total, e.Armed())
		}
		time.Sleep(time.Millisecond)
	}
	close(done)
	pw.Wait()
}

func TestEventCountZeroAlloc(t *testing.T) {
	var e EventCount
	w := e.NewWaiter()
	if a := testing.AllocsPerRun(1000, e.Signal); a != 0 {
		t.Fatalf("Signal with no waiter armed allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		w.Arm(e.Gen())
		w.Disarm()
	}); a != 0 {
		t.Fatalf("Arm/Disarm allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		w.Arm(e.Gen())
		e.Signal()
		<-w.C()
	}); a != 0 {
		t.Fatalf("Arm/Signal/wake allocates %.1f/op", a)
	}
}

// TestDeviceSignalsOnPlacementAndCompletion checks the two device paths
// that move the event count: the responder's after an inbound write is
// placed, and the requester's after a completion is pushed.
func TestDeviceSignalsOnPlacementAndCompletion(t *testing.T) {
	a, b := testPair(t, fabric.Config{}, Config{}, Config{})
	qa, _, err := ConnectPair(a, b, RC)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := b.RegisterMR(64, PermRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := a.Events().Gen(), b.Events().Gen()
	wb := b.Events().NewWaiter()
	if !wb.Arm(gb) {
		t.Fatal("responder waiter refused to arm on an idle device")
	}
	if err := qa.PostSend(SendWR{
		WRID: 1, Op: OpWrite, Inline: []byte("payload!"),
		RKey: mr.RKey(), RemoteOff: 8, Signaled: true,
	}); err != nil {
		t.Fatal(err)
	}
	if !wakeWithin(wb, 10*time.Second) {
		t.Fatal("responder not woken by an inbound write")
	}
	if got := mr.Load64(8); got == 0 {
		t.Fatal("woken before the write was placed")
	}
	deadline := time.Now().Add(10 * time.Second)
	for a.Events().Gen() == ga {
		if time.Now().After(deadline) {
			t.Fatal("requester event count did not move after a signaled completion")
		}
		time.Sleep(time.Millisecond)
	}
	var cq [1]Completion
	if qa.SendCQ().Poll(cq[:]) != 1 {
		t.Fatal("requester generation moved without a completion pushed")
	}
}
