package rnic

import (
	"runtime"
	"time"

	"flock/internal/fabric"
	"flock/internal/mem"
)

// execute runs one work request on the device's processing unit. It
// models the requester NIC touching its own connection context, the wire
// transfer, and the responder NIC touching its context and performing DMA
// against the target memory region.
func (d *Device) execute(q *QP, wr *SendWR) {
	// Every path through execute is terminal for the WR, so the pooled
	// Inline lease (if the poster transferred one) dies here.
	if wr.Pooled != nil {
		defer func() {
			wr.Pooled.Release()
			wr.Pooled = nil
		}()
	}
	// A QP that entered the error state while this WR sat in the pipeline
	// flushes it unexecuted, exactly as enterError does for still-queued
	// WRs.
	if q.transport != UD && q.InError() {
		d.counters.add(&d.counters.WRFlushed, 1)
		d.complete(q, wr, StatusWRFlush, 0)
		return
	}

	// Requester-side connection-context access (UD uses one context for
	// all peers — that is precisely its scalability advantage, §2.2).
	d.cacheAccess(int(d.cfg.Node), q.qpn)

	var dstNode, dstQPN int
	if q.transport == UD {
		dstNode, dstQPN = wr.Dst.Node, wr.Dst.QPN
	} else {
		dstNode, dstQPN = q.Peer()
	}

	payload, pbuf := d.gatherPayload(q, wr)
	if pbuf != nil {
		defer pbuf.Release()
	}

	// Wire accounting. Reads move the payload in the response direction;
	// everything else in the request direction. Atomics move 8 bytes each
	// way; we charge the request direction.
	txBytes := len(payload)
	switch wr.Op {
	case OpRead:
		txBytes = 0 // request is header-only; response accounted below
	case OpFetchAdd, OpCmpSwap:
		txBytes = 8
	}
	pkts := d.fab.ChargeTX(d.cfg.Node, fabric.NodeID(dstNode), txBytes)
	d.counters.add(&d.counters.PacketsTX, uint64(pkts))
	d.counters.add(&d.counters.BytesTX, uint64(txBytes))

	// UD wire loss: the sender still sees a successful completion — UD
	// has no acknowledgements (Table 1).
	if q.transport == UD {
		if d.fab.DropUD(d.cfg.Node, fabric.NodeID(dstNode)) {
			d.counters.add(&d.counters.UDDropsWire, 1)
			d.complete(q, wr, StatusOK, len(payload))
			return
		}
		// UD has no end-to-end integrity check: injected corruption is
		// delivered.
		if mangled, ok := d.fab.MangleUD(d.cfg.Node, fabric.NodeID(dstNode), payload); ok {
			d.counters.add(&d.counters.UDCorrupted, 1)
			payload = mangled
		}
	}

	// RC reliability: retransmit faulted attempts with exponential backoff
	// until the retry budget runs out, then complete in error and break the
	// QP, flushing everything behind this WR.
	if q.transport == RC {
		if !d.transmitRC(q, fabric.NodeID(dstNode), txBytes) {
			d.counters.add(&d.counters.RCRetryExhausted, 1)
			d.fail(q, wr, StatusRetryExceeded, 0)
			return
		}
	}

	peer, ok := d.fab.Lookup(fabric.NodeID(dstNode)).(*Device)
	if peer == nil || !ok {
		d.fail(q, wr, StatusRemoteAccess, 0)
		return
	}

	// Responder-side connection-context access: the server NIC in a high
	// fan-in pattern caches one context per client QP, which is what
	// thrashes in Figure 2a.
	peer.cacheAccess(int(d.cfg.Node), dstQPN)

	status := StatusOK
	byteLen := len(payload)
	switch wr.Op {
	case OpWrite, OpWriteImm:
		status = d.execWrite(peer, dstQPN, wr, payload)
	case OpRead:
		status, byteLen = d.execRead(peer, wr)
	case OpSend:
		status = d.execSend(q, peer, dstQPN, wr, payload)
	case OpFetchAdd, OpCmpSwap:
		status = d.execAtomic(peer, wr)
	}

	if status != StatusOK {
		d.fail(q, wr, status, byteLen)
		return
	}
	d.complete(q, wr, status, byteLen)
}

// fail delivers wr's error completion. Fatal completions move connected
// QPs to the error state, like hardware: the state changes before the
// completion is visible, so a poller that sees the error also sees the
// QP in error, and the WRs queued behind the failure flush after it.
func (d *Device) fail(q *QP, wr *SendWR, status Status, byteLen int) {
	if q.transport == UD {
		d.complete(q, wr, status, byteLen)
		return
	}
	q.mu.Lock()
	q.state = qpError
	q.mu.Unlock()
	d.complete(q, wr, status, byteLen)
	q.enterError()
}

// transmitRC models the requester side of RC reliability: each wire
// attempt may be faulted by the fabric (random loss, detected corruption,
// a link-down window); lost attempts are retransmitted with exponential
// backoff up to Config.RCRetries. Retransmissions re-charge the wire. It
// returns false when the retry budget is exhausted or the device closes.
//
// The budget is in time as well as attempts: it is spent once RCRetries
// retransmissions have been made and the sum of their nominal backoffs
// (rcBackoff) has passed. Backoffs yield rather than sleep (retryClock),
// so giving up takes about that sum, not RCRetries timer slacks.
func (d *Device) transmitRC(q *QP, dst fabric.NodeID, txBytes int) bool {
	var clk retryClock
	for attempt := 0; ; attempt++ {
		drop, delay := d.fab.FaultRC(d.cfg.Node, dst, q.qpn)
		if delay > 0 {
			time.Sleep(delay)
		}
		if !drop {
			return true
		}
		if attempt == 0 {
			var budget time.Duration
			for a := 0; a < d.cfg.RCRetries; a++ {
				budget += rcBackoff(a)
			}
			clk = newRetryClock(budget)
		}
		if attempt >= d.cfg.RCRetries && clk.expired() {
			return false
		}
		d.counters.add(&d.counters.RCRetransmits, 1)
		pkts := d.fab.ChargeTX(d.cfg.Node, dst, txBytes)
		d.counters.add(&d.counters.PacketsTX, uint64(pkts))
		d.counters.add(&d.counters.BytesTX, uint64(txBytes))
		clk.pause(rcBackoff(attempt))
		if d.isClosed() {
			return false
		}
	}
}

// rcBackoff is the nominal pause after the given failed RC attempt: two
// bare yields, then exponential from 4µs, capped at 64µs.
func rcBackoff(attempt int) time.Duration {
	if attempt < 2 {
		return 0
	}
	back := time.Microsecond << uint(attempt)
	if back > 64*time.Microsecond {
		back = 64 * time.Microsecond
	}
	return back
}

// retryClock paces a retry loop in wall time against a budget. Pauses
// yield the processor instead of sleeping, since a sleep can oversleep by
// a millisecond or more, and they run on a fixed schedule from the first
// failure: each pause ends a nominal interval after the previous one was
// due, so yields that overshoot do not accumulate and a loop that was
// descheduled catches up.
type retryClock struct {
	next, deadline time.Time
}

func newRetryClock(budget time.Duration) retryClock {
	now := time.Now()
	return retryClock{next: now, deadline: now.Add(budget)}
}

// expired reports whether the time budget has passed.
func (c *retryClock) expired() bool { return !time.Now().Before(c.deadline) }

// pause yields until nominal after the previous pause was due (at least
// once, and never past the deadline).
func (c *retryClock) pause(nominal time.Duration) {
	c.next = c.next.Add(nominal)
	if c.next.After(c.deadline) {
		c.next = c.deadline
	}
	for {
		runtime.Gosched()
		if !time.Now().Before(c.next) {
			return
		}
	}
}

// pcieFetchNs is the modeled cost of one connection-context fetch over
// PCIe after a cache miss — roughly the round-trip of a 256B DMA read on
// a Gen3 x16 link, matching the stall the paper attributes to context
// thrashing (§2.3).
const pcieFetchNs = 600

// cacheAccess touches the device's connection cache and updates counters.
// It returns true on a hit.
func (d *Device) cacheAccess(node, qpn int) bool {
	hit := d.cache.access(node, qpn)
	if hit {
		d.counters.add(&d.counters.CacheHits, 1)
	} else {
		d.counters.add(&d.counters.CacheMisses, 1)
		d.counters.add(&d.counters.PCIeFetchNanos, pcieFetchNs)
	}
	return hit
}

// gatherPayload materializes the outbound bytes of wr (nil for reads and
// atomics' request side). When the bytes are gathered out of a local MR
// the staging space comes from the buffer pool; the returned *mem.Buf is
// non-nil in that case and the caller releases it after fabric delivery.
func (d *Device) gatherPayload(q *QP, wr *SendWR) ([]byte, *mem.Buf) {
	switch wr.Op {
	case OpSend, OpWrite, OpWriteImm:
		if wr.Inline != nil {
			return wr.Inline, nil
		}
		if wr.LocalMR != nil {
			b := mem.Get(wr.LocalLen)
			wr.LocalMR.dmaRead(b.Data(), wr.LocalOff)
			return b.Data(), b
		}
	}
	return nil, nil
}

// execWrite places payload into the responder's region. Write-with-imm
// additionally consumes a receive WQE on the destination QP and delivers a
// receive completion carrying the immediate.
func (d *Device) execWrite(peer *Device, dstQPN int, wr *SendWR, payload []byte) Status {
	mr := peer.lookupMR(wr.RKey)
	if mr == nil || mr.perms&PermRemoteWrite == 0 {
		return StatusRemoteAccess
	}
	if err := mr.checkRange(wr.RemoteOff, len(payload)); err != nil {
		return StatusRemoteAccess
	}
	mr.dmaWriteChunked(payload, wr.RemoteOff, d.fab.MTU())
	// The payload is fully placed (and, for write-imm, its receive CQE
	// pushed or the attempt failed): wake the responder's pollers.
	defer peer.events.Signal()

	if wr.Op == OpWriteImm {
		dq := peer.QPByNumber(dstQPN)
		if dq == nil {
			return StatusRemoteAccess
		}
		rwr, ok := d.waitRecv(dq)
		if !ok {
			return StatusRNRExceeded
		}
		peer.counters.add(&peer.counters.CompletionsDelivered, 1)
		dq.recvCQ.push(Completion{
			WRID:     rwr.WRID,
			Status:   StatusOK,
			Opcode:   OpRecv,
			ByteLen:  len(payload),
			Imm:      wr.Imm,
			ImmValid: true,
			QPN:      dq.qpn,
			SrcNode:  int(d.cfg.Node),
			SrcQPN:   wr.sourceQPN(),
		})
	}
	return StatusOK
}

// execRead copies from the responder's region into the requester's local
// region.
func (d *Device) execRead(peer *Device, wr *SendWR) (Status, int) {
	mr := peer.lookupMR(wr.RKey)
	if mr == nil || mr.perms&PermRemoteRead == 0 {
		return StatusRemoteAccess, 0
	}
	if err := mr.checkRange(wr.RemoteOff, wr.LocalLen); err != nil {
		return StatusRemoteAccess, 0
	}
	b := mem.Get(wr.LocalLen)
	mr.dmaRead(b.Data(), wr.RemoteOff)
	wr.LocalMR.dmaWriteChunked(b.Data(), wr.LocalOff, d.fab.MTU())
	b.Release()

	// Response-direction wire accounting.
	pkts := d.fab.ChargeTX(peer.cfg.Node, d.cfg.Node, wr.LocalLen)
	peer.counters.add(&peer.counters.PacketsTX, uint64(pkts))
	peer.counters.add(&peer.counters.BytesTX, uint64(wr.LocalLen))
	return StatusOK, wr.LocalLen
}

// execSend delivers a two-sided send into a posted receive buffer on the
// destination QP.
func (d *Device) execSend(q *QP, peer *Device, dstQPN int, wr *SendWR, payload []byte) Status {
	dq := peer.QPByNumber(dstQPN)
	if dq == nil {
		if q.transport == UD {
			peer.counters.add(&peer.counters.UDDropsNoRecv, 1)
			return StatusOK // fire and forget
		}
		return StatusRemoteAccess
	}
	var rwr RecvWR
	var ok bool
	if q.transport == UD {
		// No RNR on datagrams: absent a buffer the packet is dropped.
		rwr, ok = dq.popRecv()
		if !ok {
			peer.counters.add(&peer.counters.UDDropsNoRecv, 1)
			return StatusOK
		}
	} else {
		rwr, ok = d.waitRecv(dq)
		if !ok {
			return StatusRNRExceeded
		}
	}
	if len(payload) > rwr.Len {
		if q.transport == UD {
			peer.counters.add(&peer.counters.UDDropsNoRecv, 1)
			return StatusOK
		}
		// RC: the responder completes the receive in error; requester too.
		dq.recvCQ.push(Completion{
			WRID: rwr.WRID, Status: StatusLenError, Opcode: OpRecv, QPN: dq.qpn,
		})
		peer.counters.add(&peer.counters.CompletionsDelivered, 1)
		peer.events.Signal()
		return StatusLenError
	}
	if rwr.MR != nil {
		if err := rwr.MR.WriteAt(payload, rwr.Off); err != nil {
			return StatusRemoteAccess
		}
	}
	peer.counters.add(&peer.counters.CompletionsDelivered, 1)
	dq.recvCQ.push(Completion{
		WRID:     rwr.WRID,
		Status:   StatusOK,
		Opcode:   OpRecv,
		ByteLen:  len(payload),
		Imm:      wr.Imm,
		ImmValid: wr.ImmValid,
		QPN:      dq.qpn,
		SrcNode:  int(d.cfg.Node),
		SrcQPN:   q.qpn,
	})
	peer.events.Signal()
	return StatusOK
}

// execAtomic runs a 64-bit atomic on the responder's region and stores the
// prior value into the requester's local region.
func (d *Device) execAtomic(peer *Device, wr *SendWR) Status {
	mr := peer.lookupMR(wr.RKey)
	if mr == nil || mr.perms&PermRemoteAtomic == 0 {
		return StatusRemoteAccess
	}
	var old uint64
	var err error
	switch wr.Op {
	case OpFetchAdd:
		old, err = mr.atomic64(wr.RemoteOff, func(v uint64) uint64 { return v + wr.CompareAdd })
	case OpCmpSwap:
		old, err = mr.atomic64(wr.RemoteOff, func(v uint64) uint64 {
			if v == wr.CompareAdd {
				return wr.Swap
			}
			return v
		})
	}
	if err != nil {
		return StatusRemoteAccess
	}
	d.counters.add(&d.counters.AtomicOps, 1)
	var out [8]byte
	putLE64(out[:], old)
	if err := wr.LocalMR.WriteAt(out[:], wr.LocalOff); err != nil {
		return StatusRemoteAccess
	}
	return StatusOK
}

// rnrInterval is the pause between receiver-not-ready retries; an RNR
// wait's time budget is Config.RNRRetries of them.
const rnrInterval = 10 * time.Microsecond

// waitRecv pops a receive buffer from dq, retrying while the responder is
// not ready (RC receiver-not-ready flow control). The first 64 retries
// yield the processor once, the rest pause rnrInterval (retryClock); the
// stall is real head-of-line blocking for the pipeline, as on hardware.
// The wait gives up once it has made RNRRetries attempts and RNRRetries ×
// rnrInterval has passed, so the timeout tracks wall time rather than
// timer slack.
func (d *Device) waitRecv(dq *QP) (RecvWR, bool) {
	var clk retryClock
	for attempt := 0; ; attempt++ {
		if rwr, ok := dq.popRecv(); ok {
			return rwr, true
		}
		if attempt == 0 {
			clk = newRetryClock(time.Duration(d.cfg.RNRRetries) * rnrInterval)
		}
		if attempt >= d.cfg.RNRRetries && clk.expired() {
			return RecvWR{}, false
		}
		d.counters.add(&d.counters.RNRWaits, 1)
		pause := rnrInterval
		if attempt < 64 {
			pause = 0
		}
		clk.pause(pause)
		if d.isClosed() {
			return RecvWR{}, false
		}
	}
}

// complete delivers (or suppresses) the requester-side completion for wr.
func (d *Device) complete(q *QP, wr *SendWR, status Status, byteLen int) {
	if status == StatusOK && !wr.Signaled {
		d.counters.add(&d.counters.CompletionsSuppressed, 1)
		return
	}
	d.counters.add(&d.counters.CompletionsDelivered, 1)
	q.sendCQ.push(Completion{
		WRID:    wr.WRID,
		Status:  status,
		Opcode:  wr.Op,
		ByteLen: byteLen,
		QPN:     q.qpn,
	})
	d.events.Signal()
}

// sourceQPN lets write-imm receivers learn the sender QP; connected
// transports know it implicitly, so 0 suffices here (the receive path
// fills SrcQPN from the executing QP for sends).
func (wr *SendWR) sourceQPN() int { return 0 }

// putLE64 writes v little-endian into b[:8].
func putLE64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
