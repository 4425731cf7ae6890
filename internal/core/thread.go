package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flock/internal/mem"
	"flock/internal/rnic"
	"flock/internal/stats"
	"flock/internal/telemetry"
)

// Thread is a per-application-thread handle on a connection. FLock
// multiplexes threads onto the connection's QP set; the thread scheduler
// (§5.2) periodically reassigns them. All RPC and memory APIs of Table 2
// hang off Thread.
//
// A Thread must be used by one goroutine at a time (it models an OS
// thread); create one per worker goroutine with Conn.RegisterThread.
type Thread struct {
	conn *Conn
	id   uint32
	rng  *stats.RNG

	seq     uint64
	idemSeq uint64 // idempotency-key counter for the resilient path
	// pend is the thread's pending-call table: one completion record per
	// submitted RPC, resolved directly by sequence ID (see pending.go).
	pend pendingTable
	// sent holds the SendRPC calls RecvRes has not yet returned.
	sent    []*Pending
	memCh   chan rnic.Status
	scratch *rnic.MemRegion
	// wait parks the thread between re-submissions (awaitResubmit).
	wait *rnic.Waiter

	assigned atomic.Int32 // scheduler-written QP index
	curQP    atomic.Int32 // QP in current use (recovery paths read it)
	avoidQP  int32        // thread-local: QP to sidestep after a follower timeout

	// Request statistics consumed by the thread scheduler; guarded by
	// statMu because the scheduler reads-and-resets them.
	statMu  sync.Mutex
	median  *stats.RunningMedian
	reqs    uint64
	bytes   uint64
	pending bool // stats present since last scheduling
}

// Response is one RPC response delivered to a thread (fl_recv_res).
type Response struct {
	// Seq echoes the sequence ID returned by SendRPC, mapping the
	// response to its outstanding request (§4.1).
	Seq uint64
	// RPCID echoes the handler ID.
	RPCID uint32
	// Status is StatusOK, StatusNoHandler or StatusHandlerPanic.
	Status uint32
	// Data is the response payload. It views a pooled buffer leased to
	// this Response: it stays valid until Release is called, and forever
	// for callers that never Release (the garbage collector reclaims the
	// lease instead of the pool recycling it).
	Data []byte

	// buf is the pool lease backing Data; nil for poison responses and
	// responses whose payload was copied.
	buf *mem.Buf

	// trace, when non-nil, is the owning node's lifecycle ring; Release
	// records the final EvRelease event on it. Set by the dispatcher.
	trace *telemetry.TraceRing

	// err marks a poison response injected by recovery paths (ErrQPBroken,
	// ErrConnClosed) rather than a response off the wire.
	err error
}

// Release returns the response's payload buffer to the pool. Call it once
// the Data has been consumed (or copied out); after Release the Data slice
// must not be touched. Release is idempotent on the same Response value
// and a no-op for responses without a pooled payload, so legacy callers
// that never Release — and code handling poison responses — stay correct;
// they merely forgo buffer recycling.
func (r *Response) Release() {
	if b := r.buf; b != nil {
		r.buf = nil
		r.Data = nil
		b.Release()
		if r.trace != nil {
			r.trace.Record(telemetry.EvRelease, -1, 0, r.Seq, 0)
		}
	}
}

// RegisterThread creates a thread handle. The initial QP assignment is
// round-robin; the thread scheduler refines it from observed behaviour.
func (c *Conn) RegisterThread() *Thread {
	id := c.nextTID.Add(1) - 1
	scratchLen := c.node.opts.MaxPayload
	if scratchLen < 64 {
		scratchLen = 64
	}
	scratch, err := c.node.dev.RegisterMR(scratchLen, 0)
	if err != nil {
		scratch = nil // node closing; ops will fail with ErrClosed
	}
	t := &Thread{
		conn:    c,
		id:      id,
		rng:     stats.NewRNG(c.node.opts.Seed*0x9E3779B9 + uint64(id) + uint64(c.remote)<<32 + 1),
		memCh:   make(chan rnic.Status, 1),
		scratch: scratch,
		wait:    c.node.dev.Events().NewWaiter(),
		median:  stats.NewRunningMedian(32),
	}
	t.pend.recs = make(map[uint64]*callRec)
	t.pend.slot = make(chan struct{}, 1)
	t.assigned.Store(int32(int(id) % len(c.qps)))
	t.curQP.Store(t.assigned.Load())
	t.avoidQP = -1
	c.threadMu.Lock()
	c.threads[id] = t
	c.threadMu.Unlock()
	return t
}

// ID returns the thread's identifier within the connection.
func (t *Thread) ID() uint32 { return t.id }

// Conn returns the owning connection handle.
func (t *Thread) Conn() *Conn { return t.conn }

// Outstanding reports requests sent but not yet completed: the depth of
// the thread's pending-call table.
func (t *Thread) Outstanding() int { return t.pend.depth() }

// pickQP selects the QP for the next operation: the scheduler's
// assignment, deferred while responses are outstanding on a still-active
// previous QP (§5.2 migration rule), with a fallback scan when the choice
// is deactivated.
func (t *Thread) pickQP() *connQP {
	c := t.conn
	idx := t.assigned.Load()
	if idx < 0 || int(idx) >= len(c.qps) {
		idx = 0
	}
	cur := t.curQP.Load()
	if cur != idx && t.pend.depth() > 1 && c.qps[cur].active() {
		// Finish in-flight traffic on the old QP before migrating. The
		// caller has already counted the operation being placed, so only
		// a count above one means earlier responses are still due.
		idx = cur
	}
	q := c.qps[idx]
	// Scan away from a deactivated choice, and from a QP whose leader just
	// stalled on us (avoidQP) when an alternative exists — that sidestep is
	// the re-election onto a live QP.
	if !q.active() || (idx == t.avoidQP && len(c.qps) > 1) {
		for off := 1; off <= len(c.qps); off++ {
			cand := c.qps[(int(idx)+off)%len(c.qps)]
			if cand.active() && int32(cand.idx) != t.avoidQP {
				q = cand
				idx = int32(cand.idx)
				break
			}
		}
		if !q.active() && t.avoidQP >= 0 && int(t.avoidQP) < len(c.qps) &&
			c.qps[t.avoidQP].active() {
			// The avoided QP is the only active one left; use it.
			q = c.qps[t.avoidQP]
			idx = t.avoidQP
		}
	}
	if cur != idx {
		c.node.metrics.migrs.Add(1)
	}
	t.curQP.Store(idx)
	return q
}

// awaitResubmit waits before a submit loop re-submits after verdict v
// (stateTimedOut or stateMigrate) in a round that began at device event
// generation seen. A timed-out follower re-elects at once, and so does a
// migrated one while some QP of the connection is usable — pickQP will
// find it. With none usable the thread waits for what can make one usable
// again — a server activation write, a recycle or a connection failure,
// all of which move the event count — or for deadline (zero means none).
// It reports false when the node closed.
func (t *Thread) awaitResubmit(v uint32, seen uint64, deadline time.Time) bool {
	if v == stateTimedOut || t.conn.anyActive() {
		runtime.Gosched()
		return true
	}
	var tick <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		tick = timer.C
	}
	return t.conn.node.awaitEvent(t.wait, seen, tick, t.conn.closedCh()) != wakeStop
}

// recordStat feeds the thread scheduler's inputs (§5.2): median request
// size, request count, and bytes since the last scheduling interval.
func (t *Thread) recordStat(size int) {
	t.statMu.Lock()
	t.median.Add(uint64(size))
	t.reqs++
	t.bytes += uint64(size)
	t.pending = true
	t.statMu.Unlock()
}

// takeStat snapshots and resets the scheduler inputs.
func (t *Thread) takeStat() (ThreadStat, bool) {
	t.statMu.Lock()
	defer t.statMu.Unlock()
	if !t.pending {
		return ThreadStat{ID: t.id}, false
	}
	s := ThreadStat{
		ID:        t.id,
		MedianReq: t.median.Median(),
		Reqs:      t.reqs,
		Bytes:     t.bytes,
	}
	t.reqs, t.bytes, t.pending = 0, 0, false
	return s, true
}

// SendRPC submits an RPC request (fl_send_rpc) and returns its sequence
// ID. The request is coalesced with concurrent threads' requests via
// FLock synchronization; the response arrives through RecvRes. SendRPC is
// a Pending with the plan of a plain Call without Options.RPCTimeout — one
// unbounded attempt, so the returned sequence ID is the one the response
// echoes — and interleaves freely with Call, CallAsync and SendBatch on
// the same thread. A response RecvRes never collects keeps its pooled
// buffer until the node closes, like an unwaited CallAsync.
func (t *Thread) SendRPC(rpcID uint32, payload []byte) (uint64, error) {
	p := new(Pending)
	// A negative budget opts out of Options.RPCTimeout.
	if err := t.newPending(p, rpcID, payload, CallOptions{Budget: -1}, false); err != nil {
		return 0, err
	}
	p.startAttempt(true)
	if p.phase == pendDone {
		return 0, p.err
	}
	t.sent = append(t.sent, p)
	return p.rec.seq, nil
}

// sendAttempt registers rec in the pending-call table and submits one
// attempt carrying idemKey in the wire metadata (a nonzero key marks the
// request dedup-safe on the server). The optional deadline bounds the
// submit retry loop (migrations, follower timeouts). On failure the record
// is removed again — or, if a completer raced the failing submit, its
// response lease is recycled — so no error path leaks a table entry.
func (t *Thread) sendAttempt(rpcID uint32, payload []byte, deadline time.Time, idemKey uint64, rec *callRec) (uint64, error) {
	c := t.conn
	if c.node.draining.Load() {
		t.pend.put(rec)
		return 0, ErrDraining
	}
	if c.isClosed() {
		err := c.closedErr()
		t.pend.put(rec)
		return 0, err
	}
	t.seq++
	seq := t.seq
	rec.seq = seq
	depth := t.pend.register(rec)
	c.node.pipeDepth.Observe(uint64(depth))
	for {
		seen := c.node.dev.Events().Gen()
		q := t.pickQP()
		rec.qp.Store(int32(q.idx))
		c.node.trace.Record(telemetry.EvEnqueue, q.idx, t.id, seq, uint64(len(payload)))
		n := &tcqNode{
			kind:     opRPC,
			rpcID:    rpcID,
			seqID:    seq,
			threadID: t.id,
			idemKey:  idemKey,
			payload:  payload,
		}
		switch v := c.submit(t, q, n); v {
		case stateSent:
			t.avoidQP = -1
			t.recordStat(len(payload))
			return seq, nil
		case stateTimedOut, stateMigrate:
			if v == stateTimedOut {
				// Our leader stalled before claiming us: re-elect on
				// another QP if one exists.
				t.avoidQP = int32(q.idx)
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				t.pend.abandon(rec)
				return 0, ErrTimeout
			}
			if !t.awaitResubmit(v, seen, deadline) {
				t.pend.abandon(rec)
				return 0, c.closedErr()
			}
			// re-read assignment and retry (§5.2)
		default:
			err := c.closedErr()
			t.pend.abandon(rec)
			return 0, err
		}
	}
}

// closedErr picks the error matching why the connection is unusable: the
// recorded failure cause when the handle died (so callers can tell "give
// up" closure from retryable causes), ErrClosed when the node is merely
// shutting down.
func (c *Conn) closedErr() error {
	if c.failed.Load() {
		if p := c.failErr.Load(); p != nil {
			return *p
		}
		return ErrConnClosed
	}
	return ErrClosed
}

// pushbackErr maps server rejection statuses to their typed errors, nil
// for anything that is not a pushback.
func pushbackErr(status uint32) error {
	switch status {
	case StatusOverloaded:
		return ErrOverloaded
	case StatusDraining:
		return ErrDraining
	}
	return nil
}

// RecvRes blocks until one of the thread's SendRPC requests completes and
// returns it (fl_recv_res). Requests complete in any order when several
// are outstanding; match responses by Response.Seq. Failures surface as
// typed errors: ErrQPBroken for a request lost to a broken QP (retry at
// the caller's discretion), ErrConnClosed when the handle is closed. A
// completed request is returned even after closure; with none left,
// RecvRes blocks until the connection or node closes and reports why.
func (t *Thread) RecvRes() (Response, error) {
	p := &t.pend
	defer p.gated.Store(false)
	for {
		for i, s := range t.sent {
			if s.Done() {
				t.sent = slices.Delete(t.sent, i, i+1)
				return s.Wait()
			}
		}
		if t.conn.isClosed() {
			return Response{}, t.conn.closedErr()
		}
		if !p.gated.Load() {
			// Raise the flag, then scan again: a completion landing after
			// the scan above now sends the slot token.
			p.gated.Store(true)
			continue
		}
		select {
		case <-p.slot:
		case <-t.conn.closedCh():
		}
	}
}

// Call is the synchronous convenience wrapper around the unified
// completion engine: submit one request, wait for its completion record.
// When Options.RPCTimeout is set it behaves as CallWithDeadline with that
// budget; when Options.RetryMaxAttempts is set it routes through the
// resilient CallOpts path. Call may be freely interleaved with
// outstanding CallAsync/SendBatch requests on the same thread — every
// request owns a completion record resolved by sequence ID, so responses
// can never be misdelivered between waiters.
func (t *Thread) Call(rpcID uint32, payload []byte) (Response, error) {
	if t.conn.node.opts.RetryMaxAttempts > 0 {
		return t.CallOpts(rpcID, payload, CallOptions{})
	}
	var p Pending
	if err := t.newPending(&p, rpcID, payload, CallOptions{}, false); err != nil {
		return Response{}, err
	}
	return p.Wait()
}

// CallWithDeadline is Call bounded by a total time budget. Attempts whose
// per-attempt wait expires are retried with a fresh sequence ID and an
// exponentially growing wait until the budget runs out, then ErrTimeout.
// Each expiry is a strike against the QP in use; enough strikes break it
// and trigger the background recycle (the server end of a QP failing is
// invisible to the client NIC — timeouts are the detection signal).
//
// Delivery is at-least-once under retries: a request whose response was
// merely late may execute on the server more than once. Responses to
// abandoned attempts land on completion records the waiter has already
// walked away from, so the caller sees exactly one response.
func (t *Thread) CallWithDeadline(rpcID uint32, payload []byte, budget time.Duration) (Response, error) {
	if t.conn.node.opts.RetryMaxAttempts > 0 {
		return t.CallOpts(rpcID, payload, CallOptions{Budget: budget})
	}
	if budget <= 0 {
		return t.Call(rpcID, payload)
	}
	var p Pending
	if err := t.newPending(&p, rpcID, payload, CallOptions{Budget: budget}, false); err != nil {
		return Response{}, err
	}
	return p.Wait()
}

// memOp runs one one-sided operation through FLock synchronization and
// waits for its completion (§6). With Options.RPCTimeout set, the
// completion wait is bounded and expiry returns ErrTimeout.
func (t *Thread) memOp(wr rnic.SendWR, size int) (rnic.Status, error) {
	if t.conn.node.draining.Load() {
		return rnic.StatusQPError, ErrDraining
	}
	if t.conn.isClosed() {
		return rnic.StatusQPError, t.conn.closedErr()
	}
	// Drain a stale wakeup left over from a poisoned earlier operation (the
	// channel has capacity one and recovery sends are non-blocking, so a
	// leftover token would satisfy this op's wait prematurely).
	select {
	case <-t.memCh:
	default:
	}
	t.seq++
	var deadline time.Time
	if to := t.conn.node.opts.RPCTimeout; to > 0 {
		deadline = time.Now().Add(to)
	}
	for {
		seen := t.conn.node.dev.Events().Gen()
		q := t.pickQP()
		n := &tcqNode{
			kind:     opMem,
			seqID:    t.seq,
			threadID: t.id,
			wr:       wr,
		}
		switch v := t.conn.submit(t, q, n); v {
		case stateSent:
			t.avoidQP = -1
			t.recordStat(size)
			if deadline.IsZero() {
				select {
				case st := <-t.memCh:
					return st, nil
				case <-t.conn.closedCh():
					return rnic.StatusQPError, t.conn.closedErr()
				}
			}
			timer := time.NewTimer(time.Until(deadline))
			defer timer.Stop()
			select {
			case st := <-t.memCh:
				return st, nil
			case <-timer.C:
				t.conn.noteTimeout(q)
				return rnic.StatusQPError, ErrTimeout
			case <-t.conn.closedCh():
				return rnic.StatusQPError, t.conn.closedErr()
			}
		case stateTimedOut, stateMigrate:
			if v == stateTimedOut {
				t.avoidQP = int32(q.idx)
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return rnic.StatusQPError, ErrTimeout
			}
			if !t.awaitResubmit(v, seen, deadline) {
				return rnic.StatusQPError, t.conn.closedErr()
			}
		default:
			return rnic.StatusQPError, t.conn.closedErr()
		}
	}
}

// Read performs a one-sided RDMA read of len(dst) bytes from the remote
// region at off (fl_read).
func (t *Thread) Read(r *RemoteRegion, off int, dst []byte) error {
	if t.scratch == nil || len(dst) > t.scratch.Len() {
		return ErrReadTooLarge
	}
	st, err := t.memOp(rnic.SendWR{
		Op: rnic.OpRead, LocalMR: t.scratch, LocalOff: 0, LocalLen: len(dst),
		RKey: r.rkey, RemoteOff: off,
	}, len(dst))
	if err != nil {
		return err
	}
	if st != rnic.StatusOK {
		return statusError(st)
	}
	return t.scratch.ReadAt(dst, 0)
}

// Write performs a one-sided RDMA write of src to the remote region at
// off (fl_write).
func (t *Thread) Write(r *RemoteRegion, off int, src []byte) error {
	st, err := t.memOp(rnic.SendWR{
		Op: rnic.OpWrite, Inline: src,
		RKey: r.rkey, RemoteOff: off,
	}, len(src))
	if err != nil {
		return err
	}
	if st != rnic.StatusOK {
		return statusError(st)
	}
	return nil
}

// FetchAdd atomically adds delta to the 64-bit word at off in the remote
// region and returns its previous value (fl_fetch_and_add).
func (t *Thread) FetchAdd(r *RemoteRegion, off int, delta uint64) (uint64, error) {
	if t.scratch == nil {
		return 0, ErrClosed
	}
	st, err := t.memOp(rnic.SendWR{
		Op: rnic.OpFetchAdd, LocalMR: t.scratch, LocalOff: 0,
		RKey: r.rkey, RemoteOff: off, CompareAdd: delta,
	}, 8)
	if err != nil {
		return 0, err
	}
	if st != rnic.StatusOK {
		return 0, statusError(st)
	}
	return t.scratch.Load64(0), nil
}

// CompareSwap atomically replaces the 64-bit word at off with swap when it
// equals expect, returning the previous value (fl_cmp_and_swap). The swap
// took effect iff the returned value equals expect.
func (t *Thread) CompareSwap(r *RemoteRegion, off int, expect, swap uint64) (uint64, error) {
	if t.scratch == nil {
		return 0, ErrClosed
	}
	st, err := t.memOp(rnic.SendWR{
		Op: rnic.OpCmpSwap, LocalMR: t.scratch, LocalOff: 0,
		RKey: r.rkey, RemoteOff: off, CompareAdd: expect, Swap: swap,
	}, 8)
	if err != nil {
		return 0, err
	}
	if st != rnic.StatusOK {
		return 0, statusError(st)
	}
	return t.scratch.Load64(0), nil
}

// statusError converts a completion status to an error. QP-failure
// statuses map to ErrQPBroken — the operation was lost to a broken QP
// (now recycling in the background) and may be retried; other statuses
// are protocol errors wrapped in OpError.
func statusError(st rnic.Status) error {
	if qpFailureStatus(st) {
		return ErrQPBroken
	}
	return &OpError{Status: st}
}

// OpError reports a memory operation that completed unsuccessfully.
type OpError struct {
	// Status is the RNIC completion status.
	Status rnic.Status
}

// Error implements error.
func (e *OpError) Error() string { return "flock: operation failed: " + e.Status.String() }
