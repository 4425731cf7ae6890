package core

import (
	"bytes"
	"testing"

	"flock/internal/fabric"
	"flock/internal/rnic"
	"flock/internal/stats"
)

// ringPair wires a producer and consumer over two memory regions on one
// test device; shuttle() simulates the RDMA write delivery.
type ringPair struct {
	dev  *rnic.Device
	prod *ringProducer
	cons *ringConsumer
	dst  *rnic.MemRegion
}

func newRingPair(t *testing.T, size int) *ringPair {
	t.Helper()
	fab := fabric.New(fabric.Config{})
	dev, err := rnic.NewDevice(fab, rnic.Config{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dev.Close)
	staging, err := dev.RegisterMR(size, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dev.RegisterMR(size, rnic.PermRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := dev.RegisterMR(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &ringPair{
		dev:  dev,
		prod: &ringProducer{staging: staging, size: size},
		cons: newRingConsumer(dst, 0, size, ctrl, 0),
		dst:  dst,
	}
}

// shuttle copies n bytes at off from staging to the destination ring,
// standing in for the RDMA write.
func (rp *ringPair) shuttle(off, n int) {
	buf := make([]byte, n)
	rp.prod.staging.ReadAt(buf, off) //nolint:errcheck
	rp.dst.WriteAt(buf, off)         //nolint:errcheck
}

// produce stages and delivers one message with the given payloads.
func (rp *ringPair) produce(t *testing.T, canary uint64, payloads ...[]byte) {
	t.Helper()
	items := make([]itemMeta, len(payloads))
	for i := range payloads {
		items[i] = itemMeta{threadID: uint32(i), seqID: uint64(i)}
	}
	msg := buildMessage(items, payloads, canary, 0)
	res, ok := rp.prod.reserve(len(msg))
	if !ok {
		t.Fatal("reserve failed unexpectedly")
	}
	rp.prod.staging.WriteAt(msg, res.msgOff) //nolint:errcheck
	if res.markerOff >= 0 {
		rp.shuttle(res.markerOff, 8)
	}
	rp.shuttle(res.msgOff, len(msg))
}

func TestRingProduceConsume(t *testing.T) {
	rp := newRingPair(t, 4096)
	rp.produce(t, 7, []byte("hello"), []byte("world!"))
	h, items, mbuf, ok := rp.cons.poll()
	if !ok {
		t.Fatal("message not consumed")
	}
	defer mbuf.Release()
	if h.count != 2 || string(items[0].data) != "hello" || string(items[1].data) != "world!" {
		t.Fatalf("decoded: %+v", items)
	}
	if _, _, _, ok := rp.cons.poll(); ok {
		t.Fatal("phantom second message")
	}
	// Consumed head advanced and was published.
	if rp.cons.consumed() == 0 {
		t.Fatal("consumed head not advanced")
	}
	if rp.cons.publishMR.Load64(0) != rp.cons.consumed() {
		t.Fatal("consumed head not published")
	}
}

func TestRingWrapMarker(t *testing.T) {
	const size = 512
	rp := newRingPair(t, size)
	// Fill most of the ring, consume it, then produce a message that
	// must wrap.
	big := make([]byte, 300)
	for i := range big {
		big[i] = 0x55
	}
	rp.produce(t, 3, big)
	if _, _, b, ok := rp.cons.poll(); !ok {
		t.Fatal("first message lost")
	} else {
		b.Release()
	}
	rp.prod.updateCached(rp.cons.consumed())

	// Tail is now ~364; a 200-byte payload message (~256 total) wraps.
	rp.produce(t, 4, make([]byte, 200))
	h, items, mbuf, ok := rp.cons.poll()
	if !ok {
		t.Fatal("wrapped message not consumed")
	}
	defer mbuf.Release()
	if h.count != 1 || len(items[0].data) != 200 {
		t.Fatalf("wrapped decode: count=%d", h.count)
	}
	// Producer and consumer agree on position after the wrap.
	if rp.prod.tail != rp.cons.consumed() {
		t.Fatalf("tail %d != consumed %d", rp.prod.tail, rp.cons.consumed())
	}
}

func TestRingBackpressure(t *testing.T) {
	const size = 256
	rp := newRingPair(t, size)
	msg := buildMessage([]itemMeta{{}}, [][]byte{make([]byte, 100)}, 5, 0)
	res, ok := rp.prod.reserve(len(msg))
	if !ok {
		t.Fatal("first reserve failed")
	}
	rp.prod.staging.WriteAt(msg, res.msgOff) //nolint:errcheck
	rp.shuttle(res.msgOff, len(msg))
	// Second message does not fit until the consumer catches up.
	if _, ok := rp.prod.reserve(len(msg)); ok {
		t.Fatal("reserve succeeded with a full ring")
	}
	if _, _, b, ok := rp.cons.poll(); !ok {
		t.Fatal("consume failed")
	} else {
		b.Release()
	}
	rp.prod.updateCached(rp.cons.consumed())
	if _, ok := rp.prod.reserve(len(msg)); !ok {
		t.Fatal("reserve failed after head refresh")
	}
}

func TestRingIncompleteMessageNotConsumed(t *testing.T) {
	rp := newRingPair(t, 4096)
	msg := buildMessage([]itemMeta{{}}, [][]byte{[]byte("partial")}, 9, 0)
	res, _ := rp.prod.reserve(len(msg))
	rp.prod.staging.WriteAt(msg, res.msgOff) //nolint:errcheck
	// Deliver everything except the trailing canary: the poller must not
	// consume the torn message.
	rp.shuttle(res.msgOff, len(msg)-trailerBytes)
	if _, _, _, ok := rp.cons.poll(); ok {
		t.Fatal("torn message consumed")
	}
	// Now deliver the tail; consumption succeeds.
	rp.shuttle(res.msgOff+len(msg)-trailerBytes, trailerBytes)
	if _, _, b, ok := rp.cons.poll(); !ok {
		t.Fatal("completed message not consumed")
	} else {
		b.Release()
	}
}

func TestRingManyLaps(t *testing.T) {
	const size = 1024
	rp := newRingPair(t, size)
	payload := make([]byte, 64)
	for lap := 0; lap < 200; lap++ {
		payload[0] = byte(lap)
		rp.produce(t, uint64(lap)+1, payload)
		_, items, mbuf, ok := rp.cons.poll()
		if !ok {
			t.Fatalf("lap %d: message lost", lap)
		}
		if items[0].data[0] != byte(lap) {
			t.Fatalf("lap %d: wrong payload %d", lap, items[0].data[0])
		}
		mbuf.Release()
		rp.prod.updateCached(rp.cons.consumed())
	}
}

func TestProducerCachedMonotonic(t *testing.T) {
	rp := newRingPair(t, 1024)
	rp.prod.updateCached(100)
	rp.prod.updateCached(50) // stale piggyback must not regress
	if got := rp.prod.cached.Load(); got != 100 {
		t.Fatalf("cached = %d", got)
	}
	rp.prod.updateCached(200)
	if got := rp.prod.cached.Load(); got != 200 {
		t.Fatalf("cached = %d", got)
	}
}

func TestRingModelBasedProperty(t *testing.T) {
	// Model-based check: random sequences of variable-size messages with
	// interleaved consumption must deliver every message intact and in
	// order, across many wraps. The reference model is a simple FIFO of
	// payload hashes.
	rng := stats.NewRNG(777)
	const size = 2048
	rp := newRingPair(t, size)
	type sentMsg struct{ payload []byte }
	var fifo []sentMsg
	produced, consumed := 0, 0
	for step := 0; step < 3000; step++ {
		if rng.Uint64n(2) == 0 {
			// Produce, if space allows.
			payload := make([]byte, rng.Uint64n(300)+1)
			for i := range payload {
				payload[i] = byte(rng.Uint64())
			}
			msg := buildMessage([]itemMeta{{seqID: uint64(produced)}}, [][]byte{payload}, rng.Uint64()|1, 0)
			res, ok := rp.prod.reserve(len(msg))
			if !ok {
				continue // ring full; consumer must catch up
			}
			if err := rp.prod.staging.WriteAt(msg, res.msgOff); err != nil {
				t.Fatal(err)
			}
			if res.markerOff >= 0 {
				rp.shuttle(res.markerOff, 8)
			}
			rp.shuttle(res.msgOff, len(msg))
			fifo = append(fifo, sentMsg{payload: payload})
			produced++
		} else {
			h, items, mbuf, ok := rp.cons.poll()
			if !ok {
				continue
			}
			if len(fifo) == 0 {
				t.Fatal("consumed a message that was never produced")
			}
			want := fifo[0]
			fifo = fifo[1:]
			if h.count != 1 || !bytes.Equal(items[0].data, want.payload) {
				t.Fatalf("step %d: message %d corrupted or reordered", step, consumed)
			}
			if items[0].meta.seqID != uint64(consumed) {
				t.Fatalf("step %d: seq %d, want %d", step, items[0].meta.seqID, consumed)
			}
			mbuf.Release()
			consumed++
			rp.prod.updateCached(rp.cons.consumed())
		}
	}
	// Drain the tail.
	for len(fifo) > 0 {
		_, items, mbuf, ok := rp.cons.poll()
		if !ok {
			t.Fatalf("ring wedged with %d messages outstanding", len(fifo))
		}
		if !bytes.Equal(items[0].data, fifo[0].payload) {
			t.Fatal("tail message corrupted")
		}
		mbuf.Release()
		fifo = fifo[1:]
		consumed++
		rp.prod.updateCached(rp.cons.consumed())
	}
	if consumed != produced {
		t.Fatalf("consumed %d != produced %d", consumed, produced)
	}
	t.Logf("model-based: %d messages across ~%d ring laps", produced, int(rp.prod.tail)/size)
}

// TestRingIdleGateSeesLaterWrites polls a ring empty — arming the
// write-generation gate — and then places a message three ways: by host
// WriteAt, by a real RC write through the device, and after reset(). Each
// must be consumed by the next poll; a gate that skipped a real write
// would wedge the ring.
func TestRingIdleGateSeesLaterWrites(t *testing.T) {
	consume := func(t *testing.T, rp *ringPair, want string) {
		t.Helper()
		h, items, mbuf, ok := rp.cons.poll()
		if !ok {
			t.Fatalf("message placed after an empty poll not consumed (%s)", want)
		}
		defer mbuf.Release()
		if h.count != 1 || string(items[0].data) != want {
			t.Fatalf("decoded %q, want %q", items[0].data, want)
		}
	}
	emptyPoll := func(t *testing.T, rp *ringPair) {
		t.Helper()
		if _, _, _, ok := rp.cons.poll(); ok {
			t.Fatal("phantom message on an empty ring")
		}
		if _, _, _, ok := rp.cons.poll(); ok { // gated poll
			t.Fatal("phantom message on an empty ring")
		}
	}

	t.Run("host-write", func(t *testing.T) {
		rp := newRingPair(t, 4096)
		emptyPoll(t, rp)
		rp.produce(t, 11, []byte("host"))
		consume(t, rp, "host")
	})

	t.Run("rc-write", func(t *testing.T) {
		rp := newRingPair(t, 4096)
		peer, err := rnic.NewDevice(rp.dev.Fabric(), rnic.Config{Node: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(peer.Close)
		qp, _, err := rnic.ConnectPair(peer, rp.dev, rnic.RC)
		if err != nil {
			t.Fatal(err)
		}
		emptyPoll(t, rp)
		msg := buildMessage([]itemMeta{{}}, [][]byte{[]byte("rdma")}, 12, 0)
		res, _ := rp.prod.reserve(len(msg))
		if err := qp.PostSend(rnic.SendWR{
			WRID: 1, Op: rnic.OpWrite, Inline: msg,
			RKey: rp.dst.RKey(), RemoteOff: res.msgOff, Signaled: true,
		}); err != nil {
			t.Fatal(err)
		}
		var cq [1]rnic.Completion
		for qp.SendCQ().Poll(cq[:]) == 0 {
		}
		if cq[0].Status != rnic.StatusOK {
			t.Fatalf("RC write: %+v", cq[0])
		}
		consume(t, rp, "rdma")
	})

	t.Run("after-reset", func(t *testing.T) {
		rp := newRingPair(t, 4096)
		rp.produce(t, 13, []byte("first"))
		consume(t, rp, "first")
		// A recycled QP's producer restarts at offset zero and its first
		// message lands there before the consumer is reset. The empty
		// polls below sample the generation after that write, so only
		// reset() clearing the gate lets the consumer see it.
		msg := buildMessage([]itemMeta{{}}, [][]byte{[]byte("again")}, 14, 0)
		rp.dst.WriteAt(msg, 0) //nolint:errcheck
		emptyPoll(t, rp)
		gen := rp.dst.Writes()
		rp.cons.reset()
		if rp.dst.Writes() != gen {
			t.Fatal("reset wrote the ring region; the case no longer isolates the gate")
		}
		consume(t, rp, "again")
	})
}
