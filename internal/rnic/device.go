package rnic

import (
	"fmt"
	"sync"
	"sync/atomic"

	"flock/internal/fabric"
)

// Config configures a Device.
type Config struct {
	// Node is the device's fabric address.
	Node fabric.NodeID
	// CacheSize bounds the connection-context cache (Figure 1/2 of the
	// paper). Zero disables the model: every access hits. The paper's
	// ConnectX-5 sustains roughly a few hundred hot QPs before thrashing
	// (peak at 176–704 QPs in Figure 2a); the DES calibrates to that.
	CacheSize int
	// CQDepth is the default depth for completion queues created by this
	// device. Zero means 4096.
	CQDepth int
	// RNRRetries is the receiver-not-ready budget of a send that finds no
	// receive buffer on an RC responder: the device completes it with
	// StatusRNRExceeded once it has made RNRRetries attempts and
	// RNRRetries × 10µs of wall time has passed, so the timeout does not
	// depend on the host's timer slack. Zero means 1000 (10ms).
	RNRRetries int
	// RCRetries bounds how many times the device retransmits an RC work
	// request whose transmission the fabric faults (loss, corruption,
	// link-down) before completing it with StatusRetryExceeded and moving
	// the QP to the error state — the IBTA transport retry counter. Giving
	// up also waits out the retransmissions' nominal backoffs in wall
	// time. Zero means 7, the hardware maximum. Faults only occur when
	// the fabric has a FaultPlan installed.
	RCRetries int
}

// Counters aggregates device activity. All fields are written atomically by
// the device and may be read at any time via Device.Stats.
type Counters struct {
	// Doorbells counts PostSend calls — MMIO writes on real hardware.
	Doorbells uint64
	// InlineDoorbells counts doorbells whose work the posting goroutine
	// executed itself because the processing unit was idle; the rest were
	// handed to the pipeline goroutine.
	InlineDoorbells uint64
	// WorkRequests counts posted send-queue WRs.
	WorkRequests uint64
	// Processed counts WRs the device has executed.
	Processed uint64
	// CacheHits and CacheMisses count connection-context cache accesses
	// on this device, both requester- and responder-side; CacheEvictions
	// counts contexts pushed out by capacity pressure (each eviction is a
	// future miss — the thrashing signature of Figure 2).
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	// PCIeFetchNanos accumulates the modeled time cost of fetching evicted
	// connection contexts back over PCIe (pcieFetchNs per miss). The
	// functional tier only accounts it; the DES tier charges it.
	PCIeFetchNanos uint64
	// MRLookups counts MTT/MPT translations: every rkey resolution on the
	// responder side of a one-sided verb.
	MRLookups uint64
	// CompletionsDelivered counts CQ entries generated; Suppressed counts
	// successful unsignaled WRs that generated none (selective
	// signaling's saving, §7).
	CompletionsDelivered  uint64
	CompletionsSuppressed uint64
	// PacketsTX and BytesTX count outbound wire traffic.
	PacketsTX uint64
	BytesTX   uint64
	// UDDropsNoRecv counts inbound UD sends discarded because the target
	// QP had no receive buffer posted.
	UDDropsNoRecv uint64
	// UDDropsWire counts UD packets the fabric lost in flight.
	UDDropsWire uint64
	// RNRWaits counts responder-not-ready retry iterations on RC.
	RNRWaits uint64
	// AtomicOps counts executed fetch-add/cmp-swap verbs.
	AtomicOps uint64
	// RCRetransmits counts RC transmission attempts repeated after an
	// injected fault; RCRetryExhausted counts WRs whose retry budget ran
	// out (each moves its QP to the error state).
	RCRetransmits    uint64
	RCRetryExhausted uint64
	// WRFlushed counts work requests flushed with StatusWRFlush when
	// their QP entered the error state.
	WRFlushed uint64
	// UDCorrupted counts UD payloads delivered corrupted by the fabric.
	UDCorrupted uint64
}

func (c *Counters) add(f *uint64, n uint64) { atomic.AddUint64(f, n) }

// snapshot copies the counters with atomic loads.
func (c *Counters) snapshot() Counters {
	return Counters{
		Doorbells:             atomic.LoadUint64(&c.Doorbells),
		InlineDoorbells:       atomic.LoadUint64(&c.InlineDoorbells),
		WorkRequests:          atomic.LoadUint64(&c.WorkRequests),
		Processed:             atomic.LoadUint64(&c.Processed),
		CacheHits:             atomic.LoadUint64(&c.CacheHits),
		CacheMisses:           atomic.LoadUint64(&c.CacheMisses),
		CacheEvictions:        atomic.LoadUint64(&c.CacheEvictions),
		PCIeFetchNanos:        atomic.LoadUint64(&c.PCIeFetchNanos),
		MRLookups:             atomic.LoadUint64(&c.MRLookups),
		CompletionsDelivered:  atomic.LoadUint64(&c.CompletionsDelivered),
		CompletionsSuppressed: atomic.LoadUint64(&c.CompletionsSuppressed),
		PacketsTX:             atomic.LoadUint64(&c.PacketsTX),
		BytesTX:               atomic.LoadUint64(&c.BytesTX),
		UDDropsNoRecv:         atomic.LoadUint64(&c.UDDropsNoRecv),
		UDDropsWire:           atomic.LoadUint64(&c.UDDropsWire),
		RNRWaits:              atomic.LoadUint64(&c.RNRWaits),
		AtomicOps:             atomic.LoadUint64(&c.AtomicOps),
		RCRetransmits:         atomic.LoadUint64(&c.RCRetransmits),
		RCRetryExhausted:      atomic.LoadUint64(&c.RCRetryExhausted),
		WRFlushed:             atomic.LoadUint64(&c.WRFlushed),
		UDCorrupted:           atomic.LoadUint64(&c.UDCorrupted),
	}
}

// Device is one software RNIC attached to a fabric node. It has one
// processing unit (execMu): at most one QP send queue drains at a time,
// mirroring the serialized processing unit of real NIC hardware. A
// doorbell that finds the unit idle runs on the posting goroutine, the
// way a real NIC starts on an MMIO write at once; otherwise the QP is
// queued for the pipeline goroutine, which drains queued QPs in doorbell
// order. Only work requests that cannot block run on the poster (see
// PostSend). Per-QP send ordering follows from QP.ringing: a QP is
// drained by one holder of the unit at a time.
type Device struct {
	cfg   Config
	fab   *fabric.Fabric
	cache *connCache

	mu      sync.Mutex
	qps     map[int]*QP
	mrs     map[uint32]*MemRegion
	nextQPN int
	nextKey uint32

	work     chan *QP
	closed   chan struct{}
	wg       sync.WaitGroup
	inflight int64 // doorbells rung but not yet fully drained

	// execMu is the processing unit: held around every drain, by the
	// pipeline goroutine or by a poster that found it free.
	execMu sync.Mutex
	// drainScratch stages one batch of WRs popped from a QP send queue.
	// It is guarded by execMu, so reusing it across drain rounds is
	// race-free and saves one allocation per round.
	drainScratch [drainBudget]SendWR

	counters Counters
	events   EventCount
}

// NewDevice creates a device, registers it on the fabric, and starts its
// pipeline. Close must be called to stop the pipeline.
func NewDevice(fab *fabric.Fabric, cfg Config) (*Device, error) {
	if cfg.RNRRetries <= 0 {
		cfg.RNRRetries = 1000
	}
	if cfg.RCRetries <= 0 {
		cfg.RCRetries = 7
	}
	if cfg.CQDepth <= 0 {
		cfg.CQDepth = 4096
	}
	d := &Device{
		cfg:     cfg,
		fab:     fab,
		cache:   newConnCache(cfg.CacheSize),
		qps:     make(map[int]*QP),
		mrs:     make(map[uint32]*MemRegion),
		nextQPN: 1,
		nextKey: 1,
		work:    make(chan *QP, 4096),
		closed:  make(chan struct{}),
	}
	if err := fab.Register(d); err != nil {
		return nil, err
	}
	d.wg.Add(1)
	go d.pipeline()
	return d, nil
}

// Node implements fabric.Endpoint.
func (d *Device) Node() fabric.NodeID { return d.cfg.Node }

// Fabric returns the fabric this device is attached to.
func (d *Device) Fabric() *fabric.Fabric { return d.fab }

// Stats returns a snapshot of the device counters. Eviction counts live in
// the connection cache and are folded in here.
func (d *Device) Stats() Counters {
	s := d.counters.snapshot()
	_, _, s.CacheEvictions = d.cache.stats()
	return s
}

// Events returns the device's completion channel: the event count host
// pollers park on (see EventCount for what signals it).
func (d *Device) Events() *EventCount { return &d.events }

// CacheStats returns the connection-context cache hit/miss counts and the
// number of resident contexts.
func (d *Device) CacheStats() (hits, misses uint64, resident int) {
	h, m, _ := d.cache.stats()
	return h, m, d.cache.len()
}

// Close stops the pipeline and detaches from the fabric. Posted but
// unprocessed WRs are abandoned.
func (d *Device) Close() {
	d.mu.Lock()
	if d.isClosed() {
		d.mu.Unlock()
		return
	}
	close(d.closed)
	d.mu.Unlock()
	d.wg.Wait()
	// A poster may still be draining on its own goroutine; wait for it.
	// Later posters see closed and do not drain.
	d.execMu.Lock()
	d.execMu.Unlock()
	d.fab.Unregister(d.cfg.Node)

	// No drain runs any more; release pool leases owned by WRs never
	// executed, so abandoning work at shutdown cannot leak buffers.
	d.mu.Lock()
	qps := make([]*QP, 0, len(d.qps))
	for _, q := range d.qps {
		qps = append(qps, q)
	}
	d.mu.Unlock()
	for _, q := range qps {
		q.mu.Lock()
		sends := q.sendq
		q.sendq = nil
		q.mu.Unlock()
		for i := range sends {
			if sends[i].Pooled != nil {
				sends[i].Pooled.Release()
			}
		}
	}
}

// CreateCQ makes a completion queue with the device default depth.
func (d *Device) CreateCQ() *CQ { return NewCQ(d.cfg.CQDepth) }

// CreateQP creates a queue pair of the given transport bound to the two
// completion queues (which may be the same). UD QPs are immediately ready;
// RC/UC QPs must be connected.
func (d *Device) CreateQP(t Transport, sendCQ, recvCQ *CQ) (*QP, error) {
	if sendCQ == nil || recvCQ == nil {
		return nil, fmt.Errorf("rnic: CreateQP requires completion queues")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.isClosed() {
		return nil, ErrDeviceClosed
	}
	q := &QP{
		dev:       d,
		qpn:       d.nextQPN,
		transport: t,
		sendCQ:    sendCQ,
		recvCQ:    recvCQ,
	}
	if t == UD {
		q.state = qpReady
	}
	d.nextQPN++
	d.qps[q.qpn] = q
	return q, nil
}

// DestroyQP removes the QP with the given number from the device's table,
// flushing any queued work requests as error completions first. Recovery
// layers that recycle broken QPs use it so repeatedly flapping connections
// do not accumulate dead queue pairs.
func (d *Device) DestroyQP(qpn int) {
	d.mu.Lock()
	q := d.qps[qpn]
	delete(d.qps, qpn)
	d.mu.Unlock()
	if q != nil {
		q.enterError()
	}
}

// QPByNumber returns the local QP with the given number, or nil.
func (d *Device) QPByNumber(qpn int) *QP {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.qps[qpn]
}

// NumQPs reports how many QPs exist on the device.
func (d *Device) NumQPs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.qps)
}

// RegisterMR registers a fresh buffer of size bytes with the given remote
// permissions and returns the region.
func (d *Device) RegisterMR(size int, perms Perm) (*MemRegion, error) {
	if size <= 0 {
		return nil, fmt.Errorf("rnic: RegisterMR size %d", size)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.isClosed() {
		return nil, ErrDeviceClosed
	}
	mr := &MemRegion{
		buf:   make([]byte, size),
		lkey:  d.nextKey,
		rkey:  d.nextKey,
		perms: perms,
		node:  int(d.cfg.Node),
	}
	d.nextKey++
	d.mrs[mr.rkey] = mr
	return mr, nil
}

// lookupMR resolves an rkey to a region, nil if unknown. Each call models
// one MTT/MPT translation on the responder NIC.
func (d *Device) lookupMR(rkey uint32) *MemRegion {
	d.counters.add(&d.counters.MRLookups, 1)
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mrs[rkey]
}

// ConnectPair creates one RC (or UC) QP on each of a and b, connects them
// to each other, and returns them. Each QP gets its own send CQ and recv
// CQ created with the device defaults. It is the in-process stand-in for
// out-of-band connection exchange.
func ConnectPair(a, b *Device, t Transport) (*QP, *QP, error) {
	if t == UD {
		return nil, nil, ErrWrongTranport
	}
	qa, err := a.CreateQP(t, a.CreateCQ(), a.CreateCQ())
	if err != nil {
		return nil, nil, err
	}
	qb, err := b.CreateQP(t, b.CreateCQ(), b.CreateCQ())
	if err != nil {
		return nil, nil, err
	}
	if err := qa.Connect(int(b.Node()), qb.QPN()); err != nil {
		return nil, nil, err
	}
	if err := qb.Connect(int(a.Node()), qa.QPN()); err != nil {
		return nil, nil, err
	}
	return qa, qb, nil
}

// ring notifies the device that q has pending work. When the processing
// unit is free, the caller drains q itself; otherwise, or when that drain
// stops before a WR that must not run on the poster, q is queued for the
// pipeline goroutine. On a closed device ring does nothing: the WRs
// already queued on q belong to the device, and Close releases their
// leases.
func (d *Device) ring(q *QP) {
	atomic.AddInt64(&d.inflight, 1)
	if d.execMu.TryLock() {
		if d.isClosed() {
			d.execMu.Unlock()
			atomic.AddInt64(&d.inflight, -1)
			return
		}
		done := d.drain(q, true)
		d.execMu.Unlock()
		if done {
			d.counters.add(&d.counters.InlineDoorbells, 1)
			atomic.AddInt64(&d.inflight, -1)
			return
		}
	}
	select {
	case d.work <- q:
	case <-d.closed:
		atomic.AddInt64(&d.inflight, -1)
	}
}

// isClosed reports whether Close has begun.
func (d *Device) isClosed() bool {
	select {
	case <-d.closed:
		return true
	default:
		return false
	}
}

// Quiesce returns once every posted WR has been executed. It is a test and
// benchmark aid; applications rely on completions instead.
func (d *Device) Quiesce() {
	for atomic.LoadInt64(&d.inflight) != 0 && !d.isClosed() {
	}
}

// pipeline drains the QPs queued by doorbells that found the processing
// unit busy, in doorbell order, taking the unit around each drain.
func (d *Device) pipeline() {
	defer d.wg.Done()
	for {
		select {
		case q := <-d.work:
			d.execMu.Lock()
			d.drain(q, false)
			d.execMu.Unlock()
			atomic.AddInt64(&d.inflight, -1)
		case <-d.closed:
			return
		}
	}
}

// drainBudget bounds how many WRs the pipeline executes from one QP before
// arbitrating to the next pending QP, as NIC hardware round-robins WQE
// processing across queue pairs. Without it one deep send queue could
// starve every other connection.
const drainBudget = 16

// drain executes q's queued WRs until its send queue is observed empty or
// the fairness budget is spent; in the latter case the QP is re-queued
// behind the other pending doorbells. The caller holds execMu.
//
// An inline drain (on the posting goroutine) stops before the first WR
// that may block — see mayBlock — and before every round while faults are
// armed, leaving q.ringing set, and returns false: the caller then queues
// q for the pipeline, which resumes from that WR, so per-QP order holds.
// Otherwise drain returns true.
func (d *Device) drain(q *QP, inline bool) bool {
	spent := 0
	for {
		if inline && d.fab.FaultsArmed() {
			return false
		}
		q.mu.Lock()
		if len(q.sendq) == 0 {
			q.ringing = false
			q.mu.Unlock()
			return true
		}
		n := len(q.sendq)
		if spent+n > drainBudget {
			n = drainBudget - spent
		}
		if inline {
			for i := 0; i < n; i++ {
				if q.mayBlock(&q.sendq[i]) {
					n = i
					break
				}
			}
			if n == 0 {
				q.mu.Unlock()
				return false
			}
		}
		batch := d.drainScratch[:n]
		copy(batch, q.sendq)
		rem := copy(q.sendq, q.sendq[n:])
		q.sendq = q.sendq[:rem]
		q.mu.Unlock()

		for i := range batch {
			d.execute(q, &batch[i])
			d.counters.add(&d.counters.Processed, 1)
			batch[i] = SendWR{} // drop payload references until the next round
		}
		spent += n
		if spent >= drainBudget {
			// Budget exhausted: hand the pipeline to the next QP if the
			// work channel has room, else keep going ourselves.
			atomic.AddInt64(&d.inflight, 1)
			select {
			case d.work <- q:
				return true
			default:
				atomic.AddInt64(&d.inflight, -1)
				spent = 0
			}
		}
	}
}
