package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/kvstore"
	"flock/internal/txn"
	"flock/internal/workload"
)

// smallbank geometry and the retry allowance every transaction gets.
const (
	sbServers     = 2
	sbReplication = 2
	sbAccounts    = 100_000
	sbInitBalance = 1000
	sbMaxRetries  = 100
)

type sbSys struct {
	d       deployment
	cfg     txn.Config
	servers []*txn.Server
	clients []*sbClient
}

// sbClient is one coordinator thread. plain runs the untraced windows
// straight over the FLock transport; traced runs over a timing wrapper
// around the same transport.
type sbClient struct {
	gen               *workload.Smallbank
	plain, traced     *txn.Coordinator
	timed             *timedTransport
	n                 uint64
	commits, attempts int64
	deltaSum          uint64 // Σ Delta × |writes| over committed transactions
}

// buildSmallbank starts sbServers transaction servers with
// sbReplication-way replication, loads sbAccounts accounts onto every
// copy, and connects one client node to each server; both coordinators
// share those connections.
func buildSmallbank(seed uint64) (*sbSys, error) {
	s := &sbSys{cfg: txn.Config{Servers: sbServers, Replication: sbReplication, StoreCapacity: 1 << 18}.WithDefaults()}
	s.d.net = core.NewNetwork(fabric.Config{})
	ok := false
	defer func() {
		if !ok {
			s.d.net.Close()
		}
	}()
	var ids []fabric.NodeID
	for i := 0; i < sbServers; i++ {
		id := fabric.NodeID(i + 1)
		node, err := s.d.net.NewNode(id, core.Options{}, 0)
		if err != nil {
			return nil, err
		}
		srv, err := txn.NewFlockServerNode(node, s.cfg, i)
		if err != nil {
			return nil, err
		}
		if err := node.Serve(); err != nil {
			return nil, err
		}
		s.servers = append(s.servers, srv)
		s.d.servers = append(s.d.servers, node)
		ids = append(ids, id)
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	cli, err := s.d.net.NewNode(100, core.Options{}, 0)
	if err != nil {
		return nil, err
	}
	s.d.clients = []*core.Node{cli}
	var conns []*core.Conn
	for _, id := range ids {
		c, err := cli.Connect(id)
		if err != nil {
			return nil, err
		}
		conns = append(conns, c)
	}
	for g := 0; g < loadGoroutines; g++ {
		tr, err := txn.NewFlockTransportShared(conns)
		if err != nil {
			return nil, err
		}
		timed := &timedTransport{inner: tr}
		s.clients = append(s.clients, &sbClient{
			gen:    workload.NewSmallbank(seed*0x9E3779B97F4A7C15+uint64(g)+1, sbAccounts),
			plain:  txn.NewCoordinator(s.cfg, tr),
			traced: txn.NewCoordinator(s.cfg, timed),
			timed:  timed,
		})
	}
	ok = true
	return s, nil
}

// load writes every account's checking and savings balance on each copy
// of its partition.
func (s *sbSys) load() error {
	var bal [8]byte
	binary.LittleEndian.PutUint64(bal[:], sbInitBalance)
	for acct := uint64(0); acct < sbAccounts; acct++ {
		for _, key := range []uint64{workload.CheckingKey(acct), workload.SavingsKey(acct)} {
			p := s.cfg.PartitionOf(key)
			for i, srv := range s.servers {
				if s.cfg.HostsPartition(i, p) {
					if err := srv.Store(p).Insert(key, bal[:]); err != nil {
						return fmt.Errorf("load key %d: %w", key, err)
					}
				}
			}
		}
	}
	return nil
}

func (s *sbSys) dep() *deployment         { return &s.d }
func (s *sbSys) tracing(log *sharedSpans) {}
func (s *sbSys) close()                   { s.d.net.Close() }

func (s *sbSys) extra(m map[string]float64) {
	for _, c := range s.clients {
		m["commits"] += float64(c.commits)
		m["attempts"] += float64(c.attempts)
		m["aborts"] += float64(c.plain.Aborts + c.traced.Aborts)
		m["rpcs"] += float64(c.timed.rpcs)
	}
	m["locked_keys"] = float64(s.lockedKeys())
}

// lockedKeys counts the write locks held on the primaries. Read while no
// coordinator runs, every lock it finds was left behind by a transaction
// that failed between locking and unlocking.
func (s *sbSys) lockedKeys() int {
	n := 0
	for acct := uint64(0); acct < sbAccounts; acct++ {
		for _, key := range []uint64{workload.CheckingKey(acct), workload.SavingsKey(acct)} {
			p := s.cfg.PartitionOf(key)
			if v, err := s.servers[p].Store(p).Version(key); err == nil && kvstore.Locked(v) {
				n++
			}
		}
	}
	return n
}

// step runs one Smallbank transaction to commit, retrying OCC aborts.
func (s *sbSys) step(g int, w *worker) {
	c := s.clients[g]
	c.n++
	t := c.gen.Next()
	co := c.plain
	if w.tr != nil {
		co, c.timed.w = c.traced, w
	}
	w.beginOp(spTxn, reqID(g, c.n))
	t0 := time.Now()
	attempts, err := co.RunRetry(&t, sbMaxRetries)
	lat := time.Since(t0)
	w.endOp()
	c.attempts += int64(attempts)
	switch {
	case errors.Is(err, txn.ErrAborted):
		w.fail(fmt.Errorf("%w: %d attempts", errRetriesExhausted, attempts))
	case err != nil:
		w.fail(err)
	default:
		c.commits++
		c.deltaSum += t.Delta * uint64(len(t.Writes))
		w.ok(lat)
	}
}

// verify checks the ledger: the balances on the primaries sum to the
// initial total plus every committed transaction's deltas, and every
// replica holds its primary's balance for every key. Balances are read
// whether or not a key is still locked: a lock left by a failed
// transaction stops later ones (they fail, and count as failed ops) but
// does not by itself move money.
func (s *sbSys) verify() error {
	want := uint64(sbAccounts) * 2 * sbInitBalance
	for _, c := range s.clients {
		want += c.deltaSum
	}
	var got uint64
	for acct := uint64(0); acct < sbAccounts; acct++ {
		for _, key := range []uint64{workload.CheckingKey(acct), workload.SavingsKey(acct)} {
			p := s.cfg.PartitionOf(key)
			bal, err := balance(s.servers[p].Store(p), key)
			if err != nil {
				return err
			}
			got += bal
			for _, r := range s.cfg.ReplicasOf(p) {
				rb, err := balance(s.servers[r].Store(p), key)
				if err != nil {
					return err
				}
				if rb != bal {
					return fmt.Errorf("key %d: replica on server %d holds %d, primary %d", key, r, rb, bal)
				}
			}
		}
	}
	if got != want {
		return fmt.Errorf("ledger: balances sum to %d, committed transactions imply %d", got, want)
	}
	return nil
}

// balance reads key's balance from a quiesced store, locked or not.
func balance(st *kvstore.Store, key uint64) (uint64, error) {
	var buf [8]byte
	if err := st.GetLocked(key, buf[:]); err != nil {
		return 0, fmt.Errorf("read key %d: %w", key, err)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// timedTransport wraps the coordinator's transport with a span per call,
// named by RPC id, and counts the RPCs and one-sided reads it carries.
type timedTransport struct {
	inner txn.Transport
	w     *worker
	rpcs  int64
}

var txnSpans = map[uint32]uint8{
	txn.RPCExec: spExec, txn.RPCValidate: spValidate, txn.RPCLog: spLog,
	txn.RPCCommit: spCommit, txn.RPCAbort: spAbort,
}

func (t *timedTransport) CallMulti(servers []int, rpcID uint32, reqs [][]byte) ([][]byte, error) {
	t.rpcs += int64(len(servers))
	sp := t.w.child(txnSpans[rpcID], 0)
	out, err := t.inner.CallMulti(servers, rpcID, reqs)
	t.w.endChild(sp)
	return out, err
}

func (t *timedTransport) ReadWord(server, off int) (uint64, bool, error) {
	t.rpcs++
	sp := t.w.child(spValidate, 0)
	word, ok, err := t.inner.ReadWord(server, off)
	t.w.endChild(sp)
	return word, ok, err
}
