package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"flock/internal/cluster"
	"flock/internal/core"
	"flock/internal/fabric"
)

// kv-repl geometry.
const (
	kvMembers  = 2
	kvShards   = 16
	kvReplicas = 1
	kvKeys     = 4096 // per load goroutine
	kvStoreCap = 2048 // slots per shard store
)

// kvStore is the part of a cluster.RouterThread a kv client drives.
type kvStore interface {
	Put(key, val uint64) error
	Get(key uint64) (uint64, bool, error)
}

type kvSys struct {
	d       deployment
	m       *cluster.ShardMap
	svcs    map[fabric.NodeID]*cluster.Service
	router  *cluster.Router
	clients []*kvClient
}

// kvClient walks its own keys in a seeded order, putting then getting
// each. Values per key increase, as the service's take-the-max apply
// requires. acked is the last acknowledged put per key, tried the highest
// put issued: a put that failed may or may not have applied, so a get
// must read a value between the two.
type kvClient struct {
	st           kvStore
	keys         []uint64
	acked, tried []uint64
	pos          int
	getNext      bool
	puts, gets   int64
	n            uint64 // ops issued
}

// buildKV starts kvMembers member nodes serving a kvShards-shard map with
// kvReplicas backups per shard, and a router client node; each load
// goroutine then writes version 1 of every one of its keys.
func buildKV(seed uint64) (*kvSys, error) {
	k := &kvSys{svcs: map[fabric.NodeID]*cluster.Service{}}
	k.d.net = core.NewNetwork(fabric.Config{})
	ok := false
	defer func() {
		if !ok {
			k.close()
		}
	}()
	ids := make([]fabric.NodeID, kvMembers)
	for i := range ids {
		ids[i] = fabric.NodeID(i + 1)
	}
	m, err := cluster.NewReplicated(ids, kvShards, 0, kvReplicas)
	if err != nil {
		return nil, err
	}
	k.m = m
	for _, id := range ids {
		// The service runs forwards from handlers, so it needs workers.
		node, err := k.d.net.NewNode(id, core.Options{Workers: 2}, 0)
		if err != nil {
			return nil, err
		}
		svc, err := cluster.NewService(node, m, kvStoreCap)
		if err != nil {
			return nil, err
		}
		if err := node.Serve(); err != nil {
			return nil, err
		}
		k.svcs[id] = svc
		k.d.servers = append(k.d.servers, node)
	}
	cli, err := k.d.net.NewNode(100, core.Options{}, 0)
	if err != nil {
		return nil, err
	}
	k.d.clients = []*core.Node{cli}
	k.router = cluster.NewRouter(cli, m)
	for g := 0; g < loadGoroutines; g++ {
		k.clients = append(k.clients, newKVClient(k.router.Thread(), g, seed))
	}
	errs := make(chan error, loadGoroutines)
	for _, c := range k.clients {
		go func(c *kvClient) { errs <- c.load() }(c)
	}
	for range k.clients {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return nil, fmt.Errorf("kv load: %w", err)
	}
	ok = true
	return k, nil
}

func newKVClient(st kvStore, g int, seed uint64) *kvClient {
	c := &kvClient{st: st, keys: make([]uint64, kvKeys), acked: make([]uint64, kvKeys), tried: make([]uint64, kvKeys)}
	for i := range c.keys {
		c.keys[i] = uint64(g*kvKeys + i + 1)
	}
	rng := rand.New(rand.NewPCG(seed, uint64(g)))
	rng.Shuffle(len(c.keys), func(i, j int) { c.keys[i], c.keys[j] = c.keys[j], c.keys[i] })
	return c
}

// load writes version 1 of every key.
func (c *kvClient) load() error {
	for i, key := range c.keys {
		c.tried[i] = 1
		if err := c.st.Put(key, 1); err != nil {
			return fmt.Errorf("put %d: %w", key, err)
		}
		c.acked[i] = 1
	}
	return nil
}

func (k *kvSys) dep() *deployment         { return &k.d }
func (k *kvSys) tracing(log *sharedSpans) {}
func (k *kvSys) step(g int, w *worker) {
	c := k.clients[g]
	c.n++
	c.step(w, reqID(g, c.n))
}

func (k *kvSys) extra(m map[string]float64) {
	for _, c := range k.clients {
		m["puts"] += float64(c.puts)
		m["gets"] += float64(c.gets)
	}
	m["redirects"] = float64(k.router.Redirects())
}

// step runs the next op: a put of the current key's next version, or the
// get that reads it back.
func (c *kvClient) step(w *worker, id uint64) {
	i := c.pos
	key := c.keys[i]
	if !c.getNext {
		v := c.tried[i] + 1
		c.tried[i] = v
		c.getNext = true
		w.beginOp(spPut, id)
		t0 := time.Now()
		err := c.st.Put(key, v)
		lat := time.Since(t0)
		w.endOp()
		if err != nil {
			w.fail(err)
			return
		}
		c.acked[i] = v
		c.puts++
		w.ok(lat)
		return
	}
	c.getNext = false
	c.pos = (c.pos + 1) % len(c.keys)
	w.beginOp(spGet, id)
	t0 := time.Now()
	v, found, err := c.st.Get(key)
	lat := time.Since(t0)
	w.endOp()
	switch {
	case err != nil:
		w.fail(err)
	case !found || v < c.acked[i] || v > c.tried[i]:
		w.mismatch("get %d = %d (found %v), last acked put %d", key, v, found, c.acked[i])
	default:
		c.gets++
		w.ok(lat)
	}
}

// verify checks, with traffic stopped, that every shard's backups hold
// exactly its primary's content.
func (k *kvSys) verify() error {
	return replicasMatch(k.m, func(id fabric.NodeID, shard int) uint64 {
		return k.svcs[id].ShardFingerprint(shard)
	})
}

// replicasMatch compares each shard's fingerprint on its primary with
// the fingerprint on each of its backups.
func replicasMatch(m *cluster.ShardMap, fingerprint func(fabric.NodeID, int) uint64) error {
	for s := 0; s < m.Shards; s++ {
		want := fingerprint(m.Owner(s), s)
		for _, b := range m.BackupsOf(s) {
			if got := fingerprint(b, s); got != want {
				return fmt.Errorf("shard %d: backup %d fingerprint %#x != primary %d %#x", s, b, got, m.Owner(s), want)
			}
		}
	}
	return nil
}

func (k *kvSys) close() {
	if k.router != nil {
		k.router.Close()
	}
	for _, svc := range k.svcs {
		svc.Close()
	}
	k.d.net.Close()
}
