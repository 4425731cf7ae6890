// Package fabric provides the in-process network substrate connecting
// software RNICs (package rnic). It plays the role of the paper's 100 Gbps
// switched network: it routes traffic between nodes, accounts per-link
// packets and bytes, and injects loss for unreliable (UD) traffic so that
// software-reliability baselines have something real to recover from.
//
// The fabric is purely functional: it carries no timing. Virtual-time
// behaviour (bandwidth, propagation delay, queueing) belongs to the
// discrete-event models in internal/model; the functional tier needs only
// correct delivery semantics.
package fabric

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flock/internal/stats"
)

// NodeID identifies a node (machine) on the fabric.
type NodeID int

// Endpoint is anything attachable to the fabric; in practice an
// *rnic.Device.
type Endpoint interface {
	// Node returns the endpoint's fabric address.
	Node() NodeID
}

// LinkStats accumulates traffic counters for one directed (src → dst) link.
type LinkStats struct {
	Packets uint64
	Bytes   uint64
	Dropped uint64
}

// Config controls fabric-wide behaviour.
type Config struct {
	// UDLossProb is the probability that an unreliable-datagram packet is
	// silently dropped in flight. RC/UC traffic is never dropped (the
	// paper's RC reliability is hardware-provided; UC loss is possible on
	// real fabrics but both the paper and we exercise loss only on UD).
	UDLossProb float64
	// Seed seeds the fabric's loss generator; runs with equal seeds drop
	// the same packets.
	Seed uint64
	// MTU is the wire maximum transmission unit in bytes. Messages larger
	// than the MTU are carried as multiple packets for accounting
	// purposes. Zero means the default of 4096 (the paper's setting).
	MTU int
}

// DefaultMTU matches the MTU used across all nodes in the paper's
// evaluation (§8.1).
const DefaultMTU = 4096

// Fabric connects endpoints. Safe for concurrent use.
type Fabric struct {
	cfg Config

	mu        sync.RWMutex
	endpoints map[NodeID]Endpoint
	links     map[linkKey]*LinkStats
	rng       *stats.RNG

	// Fault injection (faults.go). plan and faultRNG are nil until
	// SetFaultPlan installs a plan; manualDown holds links forced down via
	// SetLinkDown. armed mirrors "any of them is set": the mutators
	// recompute it under mu, and FaultRC reads it without the lock, so on
	// a fabric with no faults an RC attempt costs one atomic load.
	plan       *FaultPlan
	faultRNG   *stats.RNG
	faults     []*linkFaultState
	manualDown map[linkKey]bool
	fstats     FaultStats
	armed      atomic.Bool
}

type linkKey struct {
	src, dst NodeID
}

// New creates an empty fabric.
func New(cfg Config) *Fabric {
	if cfg.MTU <= 0 {
		cfg.MTU = DefaultMTU
	}
	return &Fabric{
		cfg:       cfg,
		endpoints: make(map[NodeID]Endpoint),
		links:     make(map[linkKey]*LinkStats),
		rng:       stats.NewRNG(cfg.Seed),
	}
}

// MTU reports the fabric MTU.
func (f *Fabric) MTU() int { return f.cfg.MTU }

// Register attaches ep to the fabric. Registering two endpoints with the
// same NodeID is a configuration error and returns one.
func (f *Fabric) Register(ep Endpoint) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := ep.Node()
	if _, dup := f.endpoints[id]; dup {
		return fmt.Errorf("fabric: node %d already registered", id)
	}
	f.endpoints[id] = ep
	return nil
}

// Unregister detaches the endpoint with the given id, if present.
func (f *Fabric) Unregister(id NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.endpoints, id)
}

// Lookup returns the endpoint registered at id, or nil.
func (f *Fabric) Lookup(id NodeID) Endpoint {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.endpoints[id]
}

// Nodes returns the number of registered endpoints.
func (f *Fabric) Nodes() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.endpoints)
}

// ChargeTX records len bytes of payload moving src → dst and returns the
// number of wire packets it occupies (⌈bytes/MTU⌉, minimum 1 — even a
// zero-byte message consumes a packet of headers).
func (f *Fabric) ChargeTX(src, dst NodeID, bytes int) int {
	pkts := (bytes + f.cfg.MTU - 1) / f.cfg.MTU
	if pkts < 1 {
		pkts = 1
	}
	f.mu.Lock()
	ls := f.link(src, dst)
	ls.Packets += uint64(pkts)
	ls.Bytes += uint64(bytes)
	f.mu.Unlock()
	return pkts
}

// DropUD decides whether an unreliable datagram from src to dst is lost in
// flight, recording the drop if so.
func (f *Fabric) DropUD(src, dst NodeID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	// Link-down windows drop datagrams too: a flapped link carries nothing.
	if (len(f.faults) > 0 || len(f.manualDown) > 0) && f.stepLinkFaultsLocked(src, dst, 0) {
		f.fstats.LinkDownDrops++
		f.link(src, dst).Dropped++
		return true
	}
	if f.cfg.UDLossProb <= 0 {
		return false
	}
	if f.rng.Float64() >= f.cfg.UDLossProb {
		return false
	}
	f.link(src, dst).Dropped++
	return true
}

// link returns the stats record for (src, dst), creating it if needed.
// Caller holds f.mu.
func (f *Fabric) link(src, dst NodeID) *LinkStats {
	k := linkKey{src, dst}
	ls := f.links[k]
	if ls == nil {
		ls = &LinkStats{}
		f.links[k] = ls
	}
	return ls
}

// Link returns a copy of the traffic counters for the directed link
// src → dst. A link with no traffic reports zeros.
func (f *Fabric) Link(src, dst NodeID) LinkStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if ls := f.links[linkKey{src, dst}]; ls != nil {
		return *ls
	}
	return LinkStats{}
}

// Totals sums the traffic counters across all links.
func (f *Fabric) Totals() LinkStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var t LinkStats
	for _, ls := range f.links {
		t.Packets += ls.Packets
		t.Bytes += ls.Bytes
		t.Dropped += ls.Dropped
	}
	return t
}
