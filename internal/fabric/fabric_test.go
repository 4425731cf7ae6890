package fabric

import (
	"sync"
	"testing"
)

type fakeEndpoint struct{ id NodeID }

func (e *fakeEndpoint) Node() NodeID { return e.id }

func TestRegisterLookup(t *testing.T) {
	f := New(Config{})
	a := &fakeEndpoint{id: 1}
	if err := f.Register(a); err != nil {
		t.Fatal(err)
	}
	if got := f.Lookup(1); got != a {
		t.Fatalf("Lookup(1) = %v", got)
	}
	if got := f.Lookup(2); got != nil {
		t.Fatalf("Lookup(2) = %v, want nil", got)
	}
	if f.Nodes() != 1 {
		t.Fatalf("Nodes() = %d", f.Nodes())
	}
}

func TestRegisterDuplicate(t *testing.T) {
	f := New(Config{})
	if err := f.Register(&fakeEndpoint{id: 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Register(&fakeEndpoint{id: 3}); err == nil {
		t.Fatal("duplicate registration did not error")
	}
}

func TestUnregister(t *testing.T) {
	f := New(Config{})
	f.Register(&fakeEndpoint{id: 4})
	f.Unregister(4)
	if f.Lookup(4) != nil {
		t.Fatal("endpoint still present after Unregister")
	}
	f.Unregister(99) // absent: no panic
}

func TestDefaultMTU(t *testing.T) {
	if got := New(Config{}).MTU(); got != DefaultMTU {
		t.Fatalf("MTU = %d, want %d", got, DefaultMTU)
	}
	if got := New(Config{MTU: 1024}).MTU(); got != 1024 {
		t.Fatalf("MTU = %d, want 1024", got)
	}
}

func TestChargeTXPacketization(t *testing.T) {
	f := New(Config{MTU: 1000})
	cases := []struct {
		bytes, pkts int
	}{
		{0, 1}, {1, 1}, {999, 1}, {1000, 1}, {1001, 2}, {5000, 5}, {5001, 6},
	}
	for _, c := range cases {
		if got := f.ChargeTX(1, 2, c.bytes); got != c.pkts {
			t.Errorf("ChargeTX(%d bytes) = %d pkts, want %d", c.bytes, got, c.pkts)
		}
	}
	ls := f.Link(1, 2)
	if ls.Bytes != 0+1+999+1000+1001+5000+5001 {
		t.Errorf("link bytes = %d", ls.Bytes)
	}
	if ls.Packets != 1+1+1+1+2+5+6 {
		t.Errorf("link packets = %d", ls.Packets)
	}
	// Reverse direction is a separate link.
	if rev := f.Link(2, 1); rev.Packets != 0 {
		t.Errorf("reverse link has traffic: %+v", rev)
	}
}

func TestDropUDDisabled(t *testing.T) {
	f := New(Config{UDLossProb: 0})
	for i := 0; i < 1000; i++ {
		if f.DropUD(1, 2) {
			t.Fatal("dropped with loss probability 0")
		}
	}
}

func TestDropUDRate(t *testing.T) {
	f := New(Config{UDLossProb: 0.1, Seed: 7})
	drops := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if f.DropUD(1, 2) {
			drops++
		}
	}
	frac := float64(drops) / n
	if frac < 0.08 || frac > 0.12 {
		t.Errorf("drop rate %.3f, want ~0.10", frac)
	}
	if got := f.Link(1, 2).Dropped; got != uint64(drops) {
		t.Errorf("link dropped = %d, counted %d", got, drops)
	}
}

func TestDropUDDeterministic(t *testing.T) {
	a := New(Config{UDLossProb: 0.5, Seed: 42})
	b := New(Config{UDLossProb: 0.5, Seed: 42})
	for i := 0; i < 1000; i++ {
		if a.DropUD(1, 2) != b.DropUD(1, 2) {
			t.Fatalf("same-seed fabrics disagreed at packet %d", i)
		}
	}
}

func TestTotals(t *testing.T) {
	f := New(Config{MTU: 100})
	f.ChargeTX(1, 2, 250) // 3 pkts
	f.ChargeTX(2, 1, 50)  // 1 pkt
	f.ChargeTX(3, 2, 100) // 1 pkt
	tot := f.Totals()
	if tot.Packets != 5 || tot.Bytes != 400 {
		t.Errorf("totals = %+v", tot)
	}
}

func TestConcurrentAccess(t *testing.T) {
	f := New(Config{UDLossProb: 0.01, Seed: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ep := &fakeEndpoint{id: NodeID(id)}
			f.Register(ep)
			for i := 0; i < 1000; i++ {
				f.ChargeTX(NodeID(id), NodeID((id+1)%8), 64)
				f.DropUD(NodeID(id), NodeID((id+1)%8))
				f.Lookup(NodeID(i % 8))
			}
		}(g)
	}
	wg.Wait()
	if f.Totals().Packets != 8000 {
		t.Errorf("total packets = %d, want 8000", f.Totals().Packets)
	}
}

// TestFaultsArmedTracksEverySource checks the lock-free fast path of the
// per-attempt fault checks: the armed flag is set while any fault source
// is installed — a plan, a scheduled link fault, a manual link-down — and
// cleared once none is, and loss keeps firing while any source is set.
func TestFaultsArmedTracksEverySource(t *testing.T) {
	f := New(Config{})
	dropRC := func() bool {
		drop, _ := f.FaultRC(1, 2, 7)
		return drop
	}
	if f.FaultsArmed() || dropRC() || f.DropUD(1, 2) {
		t.Fatal("a fresh fabric injects faults")
	}

	f.SetFaultPlan(&FaultPlan{Seed: 1, RCLossProb: 1})
	if !f.FaultsArmed() || !dropRC() {
		t.Fatal("plan with RC loss 1 did not drop")
	}
	f.SetFaultPlan(nil)
	if f.FaultsArmed() || dropRC() {
		t.Fatal("SetFaultPlan(nil) left the fabric armed")
	}

	f.SetLinkDown(1, 2, true)
	if !f.FaultsArmed() || !dropRC() || !f.DropUD(1, 2) {
		t.Fatal("manual link-down did not drop RC and UD")
	}
	if drop, _ := f.FaultRC(2, 1, 7); drop {
		t.Fatal("link-down of 1→2 dropped 2→1")
	}
	// Plan and link-down together: clearing one keeps the other in force.
	f.SetFaultPlan(&FaultPlan{Seed: 1})
	f.SetFaultPlan(nil)
	if !f.FaultsArmed() || !dropRC() {
		t.Fatal("clearing the plan disarmed a manual link-down")
	}
	f.SetLinkDown(1, 2, false)
	if f.FaultsArmed() || dropRC() {
		t.Fatal("SetLinkDown(false) left the fabric armed")
	}

	f.AddLinkFault(LinkFault{Src: 1, Dst: 2})
	if !f.FaultsArmed() || !dropRC() {
		t.Fatal("scheduled link fault did not drop")
	}
	f.ClearLinkFaults()
	if dropRC() {
		t.Fatal("cleared link fault still drops")
	}
	f.SetFaultPlan(nil)
	if f.FaultsArmed() {
		t.Fatal("fabric armed with every fault source removed")
	}
}
