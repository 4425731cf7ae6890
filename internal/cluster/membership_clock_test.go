package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/resilience"
)

// scriptedProbe is a Probe transport for virtual-clock tests: per-member
// health toggled by the test, no RPCs, no deadlines, no wall time.
type scriptedProbe struct {
	mu    sync.Mutex
	down  map[fabric.NodeID]bool
	drng  map[fabric.NodeID]bool
	calls map[fabric.NodeID]int
}

// waitCalls waits until id has been probed at least n times.
func (p *scriptedProbe) waitCalls(t *testing.T, id fabric.NodeID, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		c := p.calls[id]
		p.mu.Unlock()
		if c >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("member %d probed %d times, want %d", id, c, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (p *scriptedProbe) set(id fabric.NodeID, down bool) {
	p.mu.Lock()
	p.down[id] = down
	p.mu.Unlock()
}

func (p *scriptedProbe) probe(id fabric.NodeID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.calls != nil {
		p.calls[id]++
	}
	if p.down[id] {
		return errors.New("scripted: down")
	}
	if p.drng[id] {
		return core.ErrDraining
	}
	return nil
}

// TestMembershipEscalatesOnVirtualClock is the deflaked replacement for
// ticker-driven detector tests: Start runs on a SimClock, the probe
// transport is scripted, and the suspect → dead escalation that costs
// real seconds on a wall ticker happens in zero wall time, bit-identical
// under -race.
//
// SimClock's delivery contract makes the assertions deterministic: each
// tick's send blocks until the consumer goroutine accepts it, and the
// consumer only returns to its select after ProbeOnce completes — so
// after Advance delivers N+1 ticks, at least N full probe rounds have
// finished. Advancing one tick beyond the round count needed is all the
// slack the test ever takes. The +1th round itself is still running when
// Advance returns, so a probe outcome is changed only once that round
// has probed the member (settle): the change then lands in later rounds.
func TestMembershipEscalatesOnVirtualClock(t *testing.T) {
	lc := newLiveCluster(t, 3, 8, fabric.Config{})
	probe := &scriptedProbe{
		down:  map[fabric.NodeID]bool{},
		drng:  map[fabric.NodeID]bool{},
		calls: map[fabric.NodeID]int{},
	}
	clk := NewSimClock()
	lc.mems.Clock = clk
	lc.mems.Probe = probe.probe

	const interval = 50 * time.Millisecond
	ticks := 0
	advance := func(rounds int) {
		// One extra tick so every counted round's ProbeOnce has finished
		// (the +1th tick cannot be accepted before it does).
		clk.Advance(time.Duration(rounds+1) * interval)
		ticks += rounds + 1
	}
	settle := func(id fabric.NodeID) { probe.waitCalls(t, id, ticks) }
	lc.mems.Start(interval)
	defer lc.mems.Stop()

	advance(2)
	if st := lc.mems.State(1); st != resilience.MemberLive {
		t.Fatalf("healthy member probes as %v", st)
	}

	// Down: the detector walks live → suspect → dead over missed rounds.
	settle(1)
	probe.set(1, true)
	advance(2)
	if st := lc.mems.State(1); st != resilience.MemberSuspect {
		t.Fatalf("after 2 missed rounds: %v, want suspect", st)
	}
	advance(6)
	if st := lc.mems.State(1); st != resilience.MemberDead {
		t.Fatalf("after 8 missed rounds: %v, want dead", st)
	}
	if live := lc.mems.Live(); len(live) != 2 {
		t.Fatalf("live set with one dead member = %v", live)
	}

	// Draining pushback is not death.
	settle(2)
	probe.mu.Lock()
	probe.drng[2] = true
	probe.mu.Unlock()
	advance(1)
	if st := lc.mems.State(2); st != resilience.MemberDraining {
		t.Fatalf("draining member probes as %v", st)
	}

	// Revival: one good probe round flips a dead member back to live.
	settle(1)
	probe.set(1, false)
	advance(1)
	if st := lc.mems.State(1); st != resilience.MemberLive {
		t.Fatalf("revived member probes as %v", st)
	}
}

// TestMembershipOnChangeVirtualClock: state transitions fan out exactly
// once per change, in probe order, on the virtual timeline.
func TestMembershipOnChangeVirtualClock(t *testing.T) {
	lc := newLiveCluster(t, 2, 8, fabric.Config{})
	probe := &scriptedProbe{down: map[fabric.NodeID]bool{}, drng: map[fabric.NodeID]bool{}}
	clk := NewSimClock()
	lc.mems.Clock = clk
	lc.mems.Probe = probe.probe

	var mu sync.Mutex
	transitions := []resilience.MemberState{}
	lc.mems.OnChange = func(id fabric.NodeID, st resilience.MemberState) {
		if id != 1 {
			return
		}
		mu.Lock()
		transitions = append(transitions, st)
		mu.Unlock()
	}

	const interval = time.Millisecond
	lc.mems.Start(interval)
	probe.set(1, true)
	clk.Advance(12 * interval)
	lc.mems.Stop() // consumer stopped: transitions is stable to read

	want := []resilience.MemberState{resilience.MemberSuspect, resilience.MemberDead}
	mu.Lock()
	defer mu.Unlock()
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i, st := range want {
		if transitions[i] != st {
			t.Fatalf("transition %d = %v, want %v", i, transitions[i], st)
		}
	}
}
