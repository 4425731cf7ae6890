package rnic

import (
	"sync"
	"sync/atomic"
)

// EventCount is a device's completion channel — the software analogue of
// ibv_req_notify_cq / ibv_get_cq_event, widened from one CQ to everything
// a host poller watches on the device. It is a generation counter that
// the device bumps whenever a poller might find new work:
//
//   - on the responder, after an inbound write or send has been fully
//     placed into a region (and its receive CQE, if any, pushed);
//   - on the requester, after a work request's completion is pushed.
//
// Host code that makes a skipped resource pollable again without a device
// event must call Signal too (QP recycles do).
//
// A poller samples Gen before a pass, and after an empty pass arms a
// Waiter with that sample and parks on it. No wake-up is lost: Signal
// bumps the generation and then reads the armed count, while Arm raises
// the armed count and then re-reads the generation, all with sequentially
// consistent atomics — so either the signaller sees the waiter armed and
// wakes it, or the waiter sees the new generation and does not park.
type EventCount struct {
	gen    atomic.Uint64
	nArmed atomic.Int32 // len(armed); written only under mu

	mu    sync.Mutex
	armed []*Waiter
}

// Waiter is one poller's parking slot on an EventCount. It is registered
// once and reused for every park, so parking allocates nothing. A Waiter
// belongs to one goroutine at a time.
type Waiter struct {
	ec    *EventCount
	ch    chan struct{} // cap 1: the wake token
	armed bool          // guarded by ec.mu
}

// Gen returns the current generation.
func (e *EventCount) Gen() uint64 { return e.gen.Load() }

// Signal advances the generation and wakes every armed waiter. With no
// waiter armed it costs two atomic operations.
func (e *EventCount) Signal() {
	e.gen.Add(1)
	if e.nArmed.Load() == 0 {
		return
	}
	e.mu.Lock()
	for i, w := range e.armed {
		w.armed = false
		select {
		case w.ch <- struct{}{}:
		default:
		}
		e.armed[i] = nil
	}
	e.armed = e.armed[:0]
	e.nArmed.Store(0)
	e.mu.Unlock()
}

// Armed reports how many waiters are armed (parked or about to park).
func (e *EventCount) Armed() int { return int(e.nArmed.Load()) }

// NewWaiter registers a parking slot on the event count.
func (e *EventCount) NewWaiter() *Waiter {
	return &Waiter{ec: e, ch: make(chan struct{}, 1)}
}

// Arm prepares the waiter to park for a generation past seen. It returns
// false — leaving the waiter disarmed — when the generation has already
// moved, in which case the caller must re-poll instead of parking. After
// a true return the caller receives from C, or calls Disarm if it stops
// waiting for another reason.
func (w *Waiter) Arm(seen uint64) bool {
	e := w.ec
	e.mu.Lock()
	if !w.armed {
		w.armed = true
		e.armed = append(e.armed, w)
		e.nArmed.Add(1)
	}
	e.mu.Unlock()
	if e.gen.Load() != seen {
		w.Disarm()
		return false
	}
	return true
}

// C returns the channel that receives the wake token. A received token
// means the waiter was woken and is disarmed.
func (w *Waiter) C() <-chan struct{} { return w.ch }

// Disarm withdraws an armed waiter and discards a wake token that raced
// in, so the next park starts clean. It is a no-op on a disarmed waiter.
func (w *Waiter) Disarm() {
	e := w.ec
	e.mu.Lock()
	if w.armed {
		w.armed = false
		for i, o := range e.armed {
			if o == w {
				last := len(e.armed) - 1
				e.armed[i] = e.armed[last]
				e.armed[last] = nil
				e.armed = e.armed[:last]
				break
			}
		}
		e.nArmed.Add(-1)
	}
	e.mu.Unlock()
	select {
	case <-w.ch:
	default:
	}
}
