package flock_test

import (
	"fmt"

	"flock"
)

// Example shows the minimal server/client round trip through the
// connection-handle API.
func Example() {
	net := flock.NewNetwork(flock.FabricConfig{})
	defer net.Close()

	server, _ := net.NewNode(1, flock.Options{}, 0)
	server.RegisterHandler(1, func(req []byte) []byte {
		return append([]byte("echo: "), req...)
	})
	server.Serve()

	client, _ := net.NewNode(2, flock.Options{}, 0)
	conn, _ := client.Connect(1)
	th := conn.RegisterThread()
	resp, _ := th.Call(1, []byte("hello"))
	fmt.Println(string(resp.Data))
	// Output: echo: hello
}

// ExampleThread_FetchAdd shows remote atomics through a connection handle.
func ExampleThread_FetchAdd() {
	net := flock.NewNetwork(flock.FabricConfig{})
	defer net.Close()
	server, _ := net.NewNode(1, flock.Options{}, 0)
	server.Serve()
	client, _ := net.NewNode(2, flock.Options{}, 0)
	conn, _ := client.Connect(1)
	region, _ := conn.AttachMemRegion(64)
	th := conn.RegisterThread()

	old1, _ := th.FetchAdd(region, 0, 5)
	old2, _ := th.FetchAdd(region, 0, 5)
	fmt.Println(old1, old2)
	// Output: 0 5
}

// ExampleThread_SendRPC shows pipelined asynchronous requests: several in
// flight, RecvRes returning each as it completes, responses matched by
// sequence ID.
func ExampleThread_SendRPC() {
	net := flock.NewNetwork(flock.FabricConfig{})
	defer net.Close()
	server, _ := net.NewNode(1, flock.Options{}, 0)
	server.RegisterHandler(1, func(req []byte) []byte { return req })
	server.Serve()
	client, _ := net.NewNode(2, flock.Options{}, 0)
	conn, _ := client.Connect(1)
	th := conn.RegisterThread()

	seqs := make(map[uint64]string)
	for _, msg := range []string{"a", "b", "c"} {
		seq, _ := th.SendRPC(1, []byte(msg))
		seqs[seq] = msg
	}
	got := 0
	for got < 3 {
		resp, _ := th.RecvRes()
		if seqs[resp.Seq] == string(resp.Data) {
			got++
		}
	}
	fmt.Println("matched", got)
	// Output: matched 3
}

// ExampleThread_CallAsync shows the pending-call pipeline: a window of
// futures in flight on one thread, each completed by its own record, with
// a blocking Call interleaved mid-window.
func ExampleThread_CallAsync() {
	net := flock.NewNetwork(flock.FabricConfig{})
	defer net.Close()
	server, _ := net.NewNode(1, flock.Options{}, 0)
	server.RegisterHandler(1, func(req []byte) []byte { return req })
	server.Serve()
	client, _ := net.NewNode(2, flock.Options{}, 0)
	conn, _ := client.Connect(1)
	th := conn.RegisterThread()

	var pends []*flock.Pending
	for _, msg := range []string{"a", "b", "c"} {
		p, _ := th.CallAsync(1, []byte(msg), flock.CallOptions{})
		pends = append(pends, p)
	}
	sync, _ := th.Call(1, []byte("mid")) // fine with futures outstanding
	fmt.Println(string(sync.Data))
	sync.Release()
	for _, p := range pends {
		resp, _ := p.Wait()
		fmt.Println(string(resp.Data))
		resp.Release()
	}
	// Output:
	// mid
	// a
	// b
	// c
}

// ExampleThread_SendBatch shows one combining-queue submission carrying a
// thread's whole batch, one Pending per op.
func ExampleThread_SendBatch() {
	net := flock.NewNetwork(flock.FabricConfig{})
	defer net.Close()
	server, _ := net.NewNode(1, flock.Options{}, 0)
	server.RegisterHandler(1, func(req []byte) []byte { return req })
	server.Serve()
	client, _ := net.NewNode(2, flock.Options{}, 0)
	conn, _ := client.Connect(1)
	th := conn.RegisterThread()

	ops := []flock.BatchOp{
		{RPCID: 1, Payload: []byte("x")},
		{RPCID: 1, Payload: []byte("y")},
	}
	pends, _ := th.SendBatch(ops, flock.CallOptions{})
	for _, p := range pends {
		resp, _ := p.Wait()
		fmt.Println(string(resp.Data))
		resp.Release()
	}
	// Output:
	// x
	// y
}

// ExampleClusterRouter shows the shard-aware client against a two-member
// sharded KV: a put routes to the key's owner, the coordinator live-
// migrates that shard to the other member, and the next access
// self-corrects through the WrongShard NACK carrying the newer map.
func ExampleClusterRouter() {
	net := flock.NewNetwork(flock.FabricConfig{})
	defer net.Close()

	members := []flock.NodeID{1, 2}
	m, _ := flock.NewShardMap(members, 8, 0)
	coord := flock.NewClusterCoordinator(m)
	for _, id := range members {
		node, _ := net.NewNode(id, flock.Options{Workers: 2}, 0)
		svc, _ := flock.NewClusterService(node, m, 0)
		coord.AddService(svc)
		node.Serve()
	}

	client, _ := net.NewNode(100, flock.Options{}, 0)
	router := flock.NewClusterRouter(client, m)
	rt := router.Thread()

	rt.Put(42, 7) //nolint:errcheck
	from := m.OwnerOfKey(42)
	to := members[0]
	if to == from {
		to = members[1]
	}
	coord.MigrateShard(m.ShardOf(42), to) //nolint:errcheck
	// The router still holds the old map; the stale owner NACKs with the
	// new one and the call lands on the new owner transparently.
	v, found, _ := rt.Get(42)
	fmt.Println(v, found, router.Redirects() > 0)
	// Output: 7 true true
}

// ExampleAssignThreads shows the exported Algorithm 1 policy function.
func ExampleAssignThreads() {
	threads := []flock.ThreadStat{
		{ID: 0, MedianReq: 64, Reqs: 160, Bytes: 10240},
		{ID: 1, MedianReq: 64, Reqs: 160, Bytes: 10240},
		{ID: 2, MedianReq: 2048, Reqs: 10, Bytes: 20480},
	}
	asg := flock.AssignThreads(threads, 2)
	// Small-request threads share a slot; the large-payload thread gets
	// its own (head-of-line avoidance, §5.2).
	fmt.Println(asg[0] == asg[1], asg[2] != asg[0])
	// Output: true true
}
