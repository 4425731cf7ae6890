package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// newWorker returns a worker recording nsub sub-windows.
func newWorker(nsub int) *worker {
	w := &worker{subs: make([]*hist, nsub)}
	for i := range w.subs {
		w.subs[i] = new(hist)
	}
	return w
}

// worker is one load goroutine's private record of a measured window.
type worker struct {
	subs      []*hist // per sub-window; the last one takes the partial tail
	cur       int     // the sub-window being recorded
	attempted int64
	failed    int64
	causes    [numCauses]int64
	firstErr  [numCauses]error
	wrong     error        // first output-check failure
	progress  atomic.Int64 // ops finished; read by the watchdog

	tr      *spanLog // nil in untraced windows
	sampled bool     // the current op's spans are recorded
	root    int32
}

// ok records a completed op.
func (w *worker) ok(lat time.Duration) {
	w.attempted++
	w.subs[w.cur].add(int64(lat))
	w.progress.Add(1)
}

// fail records a failed or refused op.
func (w *worker) fail(err error) {
	c := classify(err)
	w.attempted++
	w.failed++
	w.causes[c]++
	if w.firstErr[c] == nil {
		w.firstErr[c] = err
	}
	w.subs[w.cur].addFailed()
	w.progress.Add(1)
}

// mismatch records an op whose output failed its check; the run is then
// incorrect, and the op counts as failed.
func (w *worker) mismatch(format string, args ...any) {
	err := fmt.Errorf(format, args...)
	if w.wrong == nil {
		w.wrong = err
	}
	w.attempted++
	w.failed++
	w.causes[causeOther]++
	w.subs[w.cur].addFailed()
	w.progress.Add(1)
}

// beginOp starts the root span of op req when tracing samples it.
func (w *worker) beginOp(name uint8, req uint64) {
	w.sampled = w.tr != nil && w.tr.sample()
	if w.sampled {
		w.root = w.tr.begin(name, -1, req)
	}
}

// endOp closes the current root span.
func (w *worker) endOp() {
	if w.sampled {
		w.tr.end(w.root)
		w.sampled = false
	}
}

// child starts a span under the current root; -1 when not sampled.
func (w *worker) child(name uint8, req uint64) int32 {
	if !w.sampled {
		return -1
	}
	return w.tr.begin(name, w.root, req)
}

// endChild closes a span started by child.
func (w *worker) endChild(i int32) {
	if i >= 0 {
		w.tr.end(i)
	}
}

// spanLog keeps one goroutine's spans in memory for the traced window.
// One op in every is sampled, and the log stops growing at limit spans.
type spanLog struct {
	epoch time.Time
	every uint64
	ops   uint64
	limit int
	spans []span
}

func newSpanLog(epoch time.Time, every uint64, limit int) *spanLog {
	return &spanLog{epoch: epoch, every: every, limit: limit, spans: make([]span, 0, limit)}
}

// sample reports whether the next op is traced; it leaves room for the
// op's child spans.
func (l *spanLog) sample() bool {
	l.ops++
	return l.ops%l.every == 0 && len(l.spans) < l.limit-64
}

func (l *spanLog) begin(name uint8, parent int32, req uint64) int32 {
	if len(l.spans) >= l.limit {
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: parent, req: req, start: int64(time.Since(l.epoch))})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(i int32) {
	if i >= 0 {
		l.spans[i].end = int64(time.Since(l.epoch))
	}
}

// sharedSpans collects spans recorded on goroutines the benchmark does not
// own (server-side handlers), linked to their op by request id.
type sharedSpans struct {
	mu  sync.Mutex
	log *spanLog
}

func (s *sharedSpans) record(name uint8, req uint64, start, end time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil || len(s.log.spans) >= s.log.limit {
		return
	}
	s.log.spans = append(s.log.spans, span{
		name: name, parent: -1, req: req,
		start: int64(start.Sub(s.log.epoch)), end: int64(end.Sub(s.log.epoch)),
	})
}
