package main

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"gosmr/internal/service"
	"gosmr/internal/transport"
	"gosmr/internal/wire"
)

// The engine is the open-loop load generator. It holds at most two TCP
// connections: link 0 to the leader (writes, leaseholder reads, every
// ordered fallback) and link 1 to follower 1 (read-index reads only). One
// goroutine — the caller of runPhase — schedules and writes both; each
// connection has one reader goroutine that decodes replies and hands them
// over on a channel, so all op state is owned by the scheduler.

const (
	linkLeader   = 0
	linkFollower = 1
	// attemptTimeout resends a request whose reply is overdue. A replica
	// drops replies when a connection's reply queue (256 entries) is full,
	// which bursts reach when thousands of clients share one connection; a
	// resend is answered from the reply cache. 50 ms (gosmr.Client waits
	// 500 ms) keeps a dropped reply from costing half a second, and is ten
	// times the batch delay, so a request merely queued is rarely resent.
	attemptTimeout = 50 * time.Millisecond
	// redirectPause spaces resends to a replica that is not leader yet.
	redirectPause = 20 * time.Millisecond
	// deadHold is how long a replica whose dial failed is not redirected to.
	deadHold = 200 * time.Millisecond
	// stallTimeout ends a phase that got no reply at all for this long: the
	// cluster stopped making progress. A failover's outage is ~0.5 s.
	stallTimeout = 5 * time.Second
)

// event is one decoded reply, or a connection's death, from a reader.
type event struct {
	link     int
	gen      int
	dead     bool
	client   uint64
	seq      uint64
	ok       bool
	redirect int32
	status   byte
	ver      uint32
	key      uint32
	at       int64
}

type link struct {
	target int
	conn   transport.FrameConn
	bw     transport.BatchWriter
	gen    int
	dirty  bool
}

// counters are the engine's reply-health figures, cumulative over a run.
type counters struct {
	replies    uint64 // replies matched to an outstanding op
	dups       uint64 // replies for an op already acknowledged
	stale      uint64 // replies for an op of the client older than its current one
	unexpected uint64 // replies naming a client or seq the generator never sent
	wrongKey   uint64 // GET replies carrying another key's value
	resends    uint64
	redirects  uint64
	bounces    uint64 // reads bounced to the ordered fallback
}

type engine struct {
	addrs  []string
	base   time.Time
	net    *transport.TCP
	links  [2]*link
	events chan event
	stop   chan struct{}
	wg     sync.WaitGroup

	cur    [numClients]*op // the op each client last sent
	deadAt []int64         // last failed dial or connection loss per replica
	c      counters

	// lastReply (engine clock) is written by the readers; the stall
	// watchdog reads it.
	lastReply atomic.Int64
	stalled   atomic.Bool
	connMu    sync.Mutex
	conns     []transport.FrameConn // every connection made, for the watchdog
}

// newEngine connects link 0 to replica leader and link 1 to replica 1.
func newEngine(addrs []string, leader int) (*engine, error) {
	e := &engine{
		addrs: addrs,
		base:  time.Now(),
		net:   &transport.TCP{DialTimeout: time.Second},
		// Readers block on this channel while the scheduler writes; 16k
		// absorbs a full reply burst from both replicas without stalling
		// the sockets.
		events: make(chan event, 1<<14),
		stop:   make(chan struct{}),
		deadAt: make([]int64, len(addrs)),
	}
	e.links[linkLeader] = &link{target: leader}
	e.links[linkFollower] = &link{target: 1}
	for i, l := range e.links {
		if err := e.connect(i, l); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func (e *engine) now() int64 { return int64(time.Since(e.base)) }

func (e *engine) connect(idx int, l *link) error {
	conn, err := e.net.Dial(e.addrs[l.target])
	if err != nil {
		e.deadAt[l.target] = e.now()
		return err
	}
	e.connMu.Lock()
	e.conns = append(e.conns, conn)
	e.connMu.Unlock()
	l.gen++
	l.conn = conn
	l.bw, _ = conn.(transport.BatchWriter)
	e.wg.Add(1)
	go e.read(idx, l.gen, conn)
	return nil
}

// read is a connection's reader goroutine.
func (e *engine) read(idx, gen int, conn transport.FrameConn) {
	defer e.wg.Done()
	for {
		f, pooled, err := transport.ReadFrameOwned(conn)
		if err != nil {
			select {
			case e.events <- event{link: idx, gen: gen, dead: true}:
			case <-e.stop:
			}
			return
		}
		msg, err := wire.Unmarshal(f)
		rep, ok := msg.(*wire.ClientReply)
		if err != nil || !ok {
			if err == nil {
				wire.Release(msg)
			}
			transport.RecycleFrame(f, pooled)
			continue // topology greetings and the like
		}
		ev := event{link: idx, gen: gen, client: rep.ClientID, seq: rep.Seq, ok: rep.OK, redirect: rep.Redirect, at: e.now()}
		e.lastReply.Store(ev.at)
		if rep.OK {
			st, val := service.DecodeReply(rep.Payload)
			ev.status, ev.ver = st, valueVersion(val)
			if len(val) >= 8 {
				ev.key = binary.LittleEndian.Uint32(val[4:])
			}
		}
		wire.Release(rep)
		transport.RecycleFrame(f, pooled)
		select {
		case e.events <- ev:
		case <-e.stop:
			return
		}
	}
}

// close drops both connections and waits for the readers.
func (e *engine) close() {
	close(e.stop)
	for _, l := range e.links {
		if l.conn != nil {
			_ = l.conn.Close()
		}
	}
	e.wg.Wait()
}

// phaseOpts tunes one runPhase call.
type phaseOpts struct {
	// drain bounds the wait for replies after the last op was due.
	drain time.Duration
	// abortBacklog, when > 0, stops sending once that many ops are
	// outstanding or overdue (a search step that already failed).
	abortBacklog int
	// actionAt, when action is set, runs action on its own goroutine that
	// long after the phase starts (the leader stop of a fault phase).
	actionAt time.Duration
	action   func()
}

// phaseRun is what runPhase reports beyond the per-op outcomes.
type phaseRun struct {
	actionAt int64 // when the action began (0 if none)
	aborted  bool
	stalled  bool // no reply for stallTimeout; the phase was cut off
}

// runPhase plays ops open-loop: each op is sent at its due time (shifted to
// now), or as soon after as its client's previous op completed. It returns
// once every op is acknowledged or the drain deadline passes; ops still
// open are marked failed.
func (e *engine) runPhase(ops []op, po phaseOpts) phaseRun {
	start := e.now() + int64(time.Millisecond)
	for i := range ops {
		ops[i].due += start
	}
	var res phaseRun
	var actionDone chan struct{}
	if po.action != nil {
		actionDone = make(chan struct{})
	}
	actionAt := start + int64(po.actionAt)

	next := 0
	var deferred []*op  // due, but their client is still busy
	retryQ := newRing() // sent ops in send order, for the overdue scan
	var delayed []*op   // resend after redirectPause
	var delayedAt []int64
	outstanding := 0
	lastDue := start
	if len(ops) > 0 {
		lastDue = ops[len(ops)-1].due
	}
	deadline := lastDue + int64(po.drain)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	stopWatch := e.watch()
	defer stopWatch()

	send := func(o *op, now int64) {
		if o.state == stPending {
			o.sent = now
			o.state = stPrimary
			e.cur[o.client] = o
			outstanding++
		}
		o.lastSend = now
		retryQ.push(o, now)
		frame, li := o.frame, linkLeader
		if o.state == stFallback {
			frame = o.fallback
		} else if o.kind == opGet && o.target == toFollower {
			li = linkFollower
		}
		e.write(li, frame)
	}
	resendLink := func(li int, now int64) {
		for _, o := range e.cur {
			if o == nil || (o.state != stPrimary && o.state != stFallback) {
				continue
			}
			onLink := linkLeader
			if o.state == stPrimary && o.kind == opGet && o.target == toFollower {
				onLink = linkFollower
			}
			if onLink == li {
				e.c.resends++
				send(o, now)
			}
		}
	}
	retarget := func(target int, now int64) {
		l := e.links[linkLeader]
		if l.conn != nil {
			_ = l.conn.Close()
			l.conn = nil
		}
		l.target = target
		e.c.redirects++
		if err := e.connect(linkLeader, l); err == nil {
			resendLink(linkLeader, now)
		}
	}
	complete := func(o *op, ev event) {
		o.acked = ev.at
		o.status = ev.status
		if o.kind == opGet {
			o.ver = ev.ver
			if ev.status == service.KVOK && ev.key != o.key {
				e.c.wrongKey++
			}
		}
		o.state = stDone
		outstanding--
		e.c.replies++
	}
	handle := func(ev event, now int64) {
		if ev.dead {
			l := e.links[ev.link]
			if ev.gen != l.gen || l.conn == nil {
				return
			}
			_ = l.conn.Close()
			l.conn = nil
			e.deadAt[l.target] = now
			if ev.link == linkLeader {
				retarget(e.nextLive(l.target), now)
			} else if e.connect(ev.link, l) == nil {
				resendLink(ev.link, now)
			}
			return
		}
		idx := ev.client - clientBase
		if ev.client < clientBase || idx >= numClients {
			e.c.unexpected++
			return
		}
		o := e.cur[idx]
		isFallback := o != nil && o.kind == opGet && ev.seq == o.seq+1
		switch {
		case o == nil || ev.seq > o.seq+1 || (ev.seq == o.seq+1 && o.kind != opGet):
			e.c.unexpected++
			return
		case ev.seq < o.seq:
			e.c.stale++
			return
		case o.state == stDone:
			e.c.dups++
			return
		case o.state == stFailed:
			e.c.stale++
			return
		}
		if ev.ok {
			complete(o, ev)
			return
		}
		if o.kind == opGet && !isFallback {
			// The read path bounced the read: order it like a write.
			if o.state == stPrimary {
				e.c.bounces++
				o.state = stFallback
				send(o, now)
			}
			return
		}
		r := int(ev.redirect)
		l := e.links[linkLeader]
		if r >= 0 && r < len(e.addrs) && r != l.target && now-e.deadAt[r] > int64(deadHold) {
			retarget(r, now)
			return
		}
		delayed = append(delayed, o)
		delayedAt = append(delayedAt, now+int64(redirectPause))
	}

	for {
		now := e.now()
		// Take whatever replies are already waiting.
	drain:
		for {
			select {
			case ev := <-e.events:
				handle(ev, now)
			default:
				break drain
			}
		}
		if actionDone != nil && res.actionAt == 0 && now >= actionAt {
			res.actionAt = now
			go func() {
				po.action()
				close(actionDone)
			}()
		}
		if e.links[linkLeader].conn == nil && now-e.deadAt[e.links[linkLeader].target] > int64(redirectPause) {
			retarget(e.nextLive(e.links[linkLeader].target), now)
		}
		if !res.aborted && po.abortBacklog > 0 && outstanding+len(deferred) > po.abortBacklog {
			res.aborted = true
			deadline = min(deadline, now+int64(po.drain))
		}
		sending := !res.aborted
		if sending {
			kept := deferred[:0]
			for _, o := range deferred {
				if c := e.cur[o.client]; c != nil && (c.state == stPrimary || c.state == stFallback) {
					kept = append(kept, o)
					continue
				}
				send(o, now)
			}
			deferred = kept
			for next < len(ops) && ops[next].due <= now {
				o := &ops[next]
				next++
				if c := e.cur[o.client]; c != nil && (c.state == stPrimary || c.state == stFallback) {
					deferred = append(deferred, o)
					continue
				}
				send(o, now)
			}
		}
		for i := 0; i < len(delayed); {
			if delayedAt[i] > now {
				i++
				continue
			}
			if o := delayed[i]; o.state == stPrimary || o.state == stFallback {
				e.c.resends++
				send(o, now)
			}
			delayed[i], delayedAt[i] = delayed[len(delayed)-1], delayedAt[len(delayed)-1]
			delayed, delayedAt = delayed[:len(delayed)-1], delayedAt[:len(delayed)-1]
		}
		for {
			o, at, ok := retryQ.peek()
			if !ok || at+int64(attemptTimeout) > now {
				break
			}
			retryQ.pop()
			if (o.state == stPrimary || o.state == stFallback) && o.lastSend == at {
				e.c.resends++
				send(o, now)
			}
		}
		e.flush()

		allSent := next == len(ops) && len(deferred) == 0
		if (allSent || res.aborted) && outstanding == 0 {
			break
		}
		if e.stalled.Load() {
			res.stalled = true
			break
		}
		if now > deadline {
			break
		}
		// Sleep until the next due op, resend, or reply.
		wake := deadline
		if sending && next < len(ops) {
			wake = min(wake, ops[next].due)
		}
		if len(deferred) > 0 || len(delayed) > 0 || e.links[linkLeader].conn == nil {
			wake = min(wake, now+int64(time.Millisecond))
		}
		if _, at, ok := retryQ.peek(); ok {
			wake = min(wake, at+int64(attemptTimeout))
		}
		if actionDone != nil && res.actionAt == 0 {
			wake = min(wake, actionAt)
		}
		if d := time.Duration(wake - e.now()); d > 0 {
			timer.Reset(d)
			select {
			case ev := <-e.events:
				handle(ev, e.now())
			case <-timer.C:
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
	}
	for i := range ops {
		if ops[i].state != stDone {
			ops[i].state = stFailed
		}
	}
	if actionDone != nil {
		if res.actionAt == 0 {
			res.actionAt = e.now()
			po.action()
		} else {
			<-actionDone
		}
	}
	return res
}

// watch starts the stall watchdog for one phase and returns its stop
// function. A stalled cluster stops reading its sockets, so the scheduler
// can block in a write; closing the connections unblocks it.
func (e *engine) watch() (stop func()) {
	e.lastReply.Store(e.now())
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if time.Duration(e.now()-e.lastReply.Load()) > stallTimeout {
				e.stalled.Store(true)
				e.connMu.Lock()
				for _, c := range e.conns {
					_ = c.Close()
				}
				e.connMu.Unlock()
				return
			}
		}
	}()
	return func() { close(done); <-exited }
}

// nextLive is the replica to try after r fails: the next one round-robin,
// as gosmr.Client rotates.
func (e *engine) nextLive(r int) int { return (r + 1) % len(e.addrs) }

func (e *engine) write(li int, frame []byte) {
	l := e.links[li]
	if l.conn == nil {
		return // resent when the link reconnects or the op is overdue
	}
	var err error
	if l.bw != nil {
		err = l.bw.WriteFrameNoFlush(frame)
		l.dirty = true
	} else {
		err = l.conn.WriteFrame(frame)
	}
	if err != nil {
		_ = l.conn.Close() // the reader reports the death
	}
}

func (e *engine) flush() {
	for _, l := range e.links {
		if l.dirty && l.conn != nil {
			if err := l.bw.Flush(); err != nil {
				_ = l.conn.Close()
			}
		}
		l.dirty = false
	}
}

// ring is a FIFO of (op, send time) pairs.
type ring struct {
	ops  []*op
	at   []int64
	head int
}

func newRing() *ring { return &ring{} }

func (r *ring) push(o *op, at int64) {
	if r.head > 4096 && r.head*2 > len(r.ops) {
		n := copy(r.ops, r.ops[r.head:])
		copy(r.at, r.at[r.head:])
		r.ops, r.at, r.head = r.ops[:n], r.at[:n], 0
	}
	r.ops = append(r.ops, o)
	r.at = append(r.at, at)
}

func (r *ring) peek() (*op, int64, bool) {
	if r.head == len(r.ops) {
		return nil, 0, false
	}
	return r.ops[r.head], r.at[r.head], true
}

func (r *ring) pop() { r.ops[r.head] = nil; r.head++ }
