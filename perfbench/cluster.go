package main

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"gosmr"
	"gosmr/internal/profiling"
	"gosmr/internal/service"
	"gosmr/internal/transport"
	"gosmr/internal/wire"
)

const clusterSize = 3

// cluster is a 3-replica in-memory KV cluster over TCP loopback, built with
// the default gosmr.Config apart from addresses and Profiling.
type cluster struct {
	reps    []*gosmr.Replica
	profs   []*profiling.Registry
	clients []string
	stopped []bool
	// created is when the replicas (and their queues, whose lifetime
	// averages QueueStats reports) were constructed.
	created time.Time
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			_ = l.Close()
		}
	}()
	var addrs []string
	for range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startCluster builds and starts the replicas; traced gives each its own
// profiling registry.
func startCluster(traced bool) (*cluster, error) {
	addrs, err := freePorts(2 * clusterSize)
	if err != nil {
		return nil, err
	}
	peers, clients := addrs[:clusterSize], addrs[clusterSize:]
	c := &cluster{clients: clients, stopped: make([]bool, clusterSize)}
	for id := range clusterSize {
		cfg := gosmr.Config{ID: id, Peers: peers, ClientAddr: clients[id]}
		if traced {
			cfg.Profiling = gosmr.NewProfilingRegistry()
		}
		rep, err := gosmr.NewReplica(cfg, service.NewKV())
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("replica %d: %w", id, err)
		}
		c.reps = append(c.reps, rep)
		c.profs = append(c.profs, cfg.Profiling)
	}
	c.created = time.Now()
	for id, rep := range c.reps {
		if err := rep.Start(); err != nil {
			c.stop()
			return nil, fmt.Errorf("start replica %d: %w", id, err)
		}
	}
	return c, nil
}

// stopReplica stops one replica (the leader, in a fault phase).
func (c *cluster) stopReplica(id int) {
	if !c.stopped[id] {
		c.reps[id].Stop()
		c.stopped[id] = true
	}
}

// stop stops every replica still running.
func (c *cluster) stop() {
	for id := range c.reps {
		c.stopReplica(id)
	}
}

// leader is the live replica that believes it leads, or -1.
func (c *cluster) leader() int {
	for id, rep := range c.reps {
		if !c.stopped[id] && rep.IsLeader() {
			return id
		}
	}
	return -1
}

// live lists the replicas not stopped.
func (c *cluster) live() []*gosmr.Replica {
	var out []*gosmr.Replica
	for id, rep := range c.reps {
		if !c.stopped[id] {
			out = append(out, rep)
		}
	}
	return out
}

// firstWrite sends one PUT to replica 0 until it is acknowledged (following
// redirects by retrying), then, with waitLease, waits until the leader
// holds a valid lease. It is the end of set-up.
func (c *cluster) firstWrite(waitLease bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	netw := &transport.TCP{DialTimeout: time.Second}
	conn, err := netw.Dial(c.clients[0])
	if err != nil {
		return fmt.Errorf("set-up probe: %w", err)
	}
	defer conn.Close()
	const probeClient = 7
	frame := wire.Marshal(&wire.ClientRequest{ClientID: probeClient, Seq: 1, Payload: service.EncodePut("setup", []byte("probe"))})
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("set-up probe: no acknowledged write within %v", timeout)
		}
		if err := conn.WriteFrame(frame); err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		f, err := conn.ReadFrame()
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		msg, err := wire.Unmarshal(f)
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		if rep, ok := msg.(*wire.ClientReply); ok && rep.OK {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for waitLease && !c.reps[0].LeaseValid() {
		if time.Now().After(deadline) {
			return fmt.Errorf("set-up: no valid lease within %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// quiesce waits until every live replica has executed the same number of
// requests and that number has held for 20 ms: the backlog of earlier
// traffic is worked off. It reports false when timeout passes first.
func (c *cluster) quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	var last uint64
	var since time.Time
	for time.Now().Before(deadline) {
		live := c.live()
		exec := live[0].Executed()
		for _, r := range live[1:] {
			if r.Executed() != exec {
				exec = 0
			}
		}
		switch {
		case exec == 0 || exec != last:
			last, since = exec, time.Now()
		case time.Since(since) >= 20*time.Millisecond:
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// converged waits until every live replica has executed the same number of
// requests and holds a byte-equal reply cache.
func (c *cluster) converged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		live := c.live()
		exec := live[0].Executed()
		cache := live[0].ReplyCacheBytes()
		same := true
		for _, r := range live[1:] {
			if r.Executed() != exec || !bytes.Equal(r.ReplyCacheBytes(), cache) {
				same = false
				break
			}
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			var ex []uint64
			for _, r := range live {
				ex = append(ex, r.Executed())
			}
			return fmt.Errorf("replicas did not converge within %v: executed=%v", timeout, ex)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
