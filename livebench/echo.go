package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"flock/internal/core"
	"flock/internal/fabric"
)

// rpcEcho is the echo handler's RPC id.
const rpcEcho uint32 = 1

// echoConfig shapes an echo workload. An op is one RPC; a step sends
// batch ops through SendBatch, or one through Call when batch is 0.
type echoConfig struct {
	size  int
	batch int
	// respond builds the handler's reply; nil echoes the request.
	respond func(req []byte) []byte
}

// Echo payload layout: bytes 0–7 carry the op's request id, so a
// misrouted response cannot match its request; bytes 8–15 carry the
// request id of the traced op it belongs to (0 when untraced); the rest
// are seeded bytes.
const echoHeader = 16

type echoSys struct {
	d       deployment
	cfg     echoConfig
	clients []*echoClient
	spans   atomic.Pointer[sharedSpans]
}

type echoClient struct {
	th   *core.Thread
	bufs [][]byte
	ops  []core.BatchOp
	n    uint64 // request ids issued
}

// buildEcho starts a server and a client node with default options and
// one connection, registers one thread per load goroutine on it and fills
// each goroutine's payloads from seed.
func buildEcho(seed uint64, cfg echoConfig) (*echoSys, error) {
	e := &echoSys{cfg: cfg}
	e.d.net = core.NewNetwork(fabric.Config{})
	ok := false
	defer func() {
		if !ok {
			e.d.net.Close()
		}
	}()
	srv, err := e.d.net.NewNode(1, core.Options{}, 0)
	if err != nil {
		return nil, err
	}
	srv.RegisterHandler(rpcEcho, e.handle)
	if err := srv.Serve(); err != nil {
		return nil, err
	}
	cli, err := e.d.net.NewNode(2, core.Options{}, 0)
	if err != nil {
		return nil, err
	}
	conn, err := cli.Connect(1)
	if err != nil {
		return nil, err
	}
	e.d.servers, e.d.clients = []*core.Node{srv}, []*core.Node{cli}
	nbuf := max(cfg.batch, 1)
	for g := 0; g < loadGoroutines; g++ {
		rng := rand.New(rand.NewPCG(seed, uint64(g)))
		c := &echoClient{th: conn.RegisterThread(), n: 1}
		for i := 0; i < nbuf; i++ {
			b := make([]byte, cfg.size)
			for j := echoHeader; j < len(b); j++ {
				b[j] = byte(rng.Uint32())
			}
			c.bufs = append(c.bufs, b)
			c.ops = append(c.ops, core.BatchOp{RPCID: rpcEcho, Payload: b})
		}
		e.clients = append(e.clients, c)
	}
	ok = true
	return e, nil
}

// handle is the echo handler. The library copies the returned bytes into
// the response message.
func (e *echoSys) handle(req []byte) []byte {
	if tr := e.spans.Load(); tr != nil && len(req) >= echoHeader {
		if root := binary.LittleEndian.Uint64(req[8:16]); root != 0 {
			t0 := time.Now()
			resp := e.reply(req)
			tr.record(spHandler, root, t0, time.Now())
			return resp
		}
	}
	return e.reply(req)
}

func (e *echoSys) reply(req []byte) []byte {
	if e.cfg.respond != nil {
		return e.cfg.respond(req)
	}
	return req
}

func (e *echoSys) dep() *deployment         { return &e.d }
func (e *echoSys) extra(map[string]float64) {}
func (e *echoSys) tracing(log *sharedSpans) { e.spans.Store(log) }
func (e *echoSys) verify() error            { return nil }
func (e *echoSys) close()                   { e.d.net.Close() }

// reqID names load goroutine g's n-th request.
func reqID(g int, n uint64) uint64 { return uint64(g)<<40 | n }

// stamp writes an echo payload's request id and traced-op id.
func stamp(b []byte, id, root uint64) {
	binary.LittleEndian.PutUint64(b[0:8], id)
	binary.LittleEndian.PutUint64(b[8:16], root)
}

func (e *echoSys) step(g int, w *worker) {
	if e.cfg.batch == 0 {
		e.call(g, w)
	} else {
		e.sendBatch(g, w)
	}
}

// call makes one synchronous Call.
func (e *echoSys) call(g int, w *worker) {
	c := e.clients[g]
	id := reqID(g, c.n)
	c.n++
	w.beginOp(spCall, id)
	p := c.bufs[0]
	stamp(p, id, tracedRoot(w, id))
	t0 := time.Now()
	resp, err := c.th.Call(rpcEcho, p)
	lat := time.Since(t0)
	w.endOp()
	if err != nil {
		w.fail(err)
		return
	}
	checkEcho(w, resp, p, id, lat)
}

// sendBatch submits one SendBatch of len(bufs) echoes and waits on each.
// An op's latency runs from submission to its own Wait returning.
func (e *echoSys) sendBatch(g int, w *worker) {
	c := e.clients[g]
	root := reqID(g, c.n)
	w.beginOp(spBatch, root)
	mark := tracedRoot(w, root)
	for _, b := range c.bufs {
		stamp(b, reqID(g, c.n), mark)
		c.n++
	}
	t0 := time.Now()
	sp := w.child(spSubmit, root)
	pends, err := c.th.SendBatch(c.ops, core.CallOptions{})
	w.endChild(sp)
	if err != nil {
		w.endOp()
		for range c.bufs {
			w.fail(err)
		}
		return
	}
	for i, p := range pends {
		id := binary.LittleEndian.Uint64(c.bufs[i][0:8])
		sp := w.child(spWait, id)
		resp, err := p.Wait()
		w.endChild(sp)
		lat := time.Since(t0)
		if err != nil {
			w.fail(err)
			continue
		}
		checkEcho(w, resp, c.bufs[i], id, lat)
	}
	w.endOp()
}

// tracedRoot is the id handlers tag their spans with: the op's own id
// when it is sampled, else 0.
func tracedRoot(w *worker, id uint64) uint64 {
	if w.sampled {
		return id
	}
	return 0
}

// checkEcho records the op as completed when the response is byte-equal
// to its request, and as a mismatch otherwise.
func checkEcho(w *worker, resp core.Response, req []byte, id uint64, lat time.Duration) {
	switch {
	case resp.Status != core.StatusOK:
		w.fail(fmt.Errorf("echo %#x: status %d", id, resp.Status))
	case !bytes.Equal(resp.Data, req):
		w.mismatch("echo %#x: response differs from request (%d vs %d bytes)", id, len(resp.Data), len(req))
	default:
		w.ok(lat)
	}
	resp.Release()
}
