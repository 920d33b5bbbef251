package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"gosmr/internal/batch"
	"gosmr/internal/executor"
	"gosmr/internal/paxos"
	"gosmr/internal/profiling"
	"gosmr/internal/queue"
	"gosmr/internal/replycache"
	"gosmr/internal/service"
	"gosmr/internal/transport"
	"gosmr/internal/wal"
	"gosmr/internal/wire"
)

// The traced run calls each layer's exported functions from outside, fed
// with the workload's generated requests, and records a span per call.
// Spans stay in memory and are written out when the run ends.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a layer's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// add records a span measured elsewhere (another goroutine).
func (t *tracer) add(name string, parent int, start, end int64) {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: start, End: end})
}

// medianNs is the median duration of the spans named name.
func (t *tracer) medianNs(name string) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start))
		}
	}
	return median(d)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	return f.Close()
}

// allocsPer runs fn n times and returns the heap allocations per call.
func allocsPer(n int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := range n {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// layerInput is the workload's requests in the forms the layers take.
type layerInput struct {
	reqs    []*wire.ClientRequest // PUTs and ordered GETs, payloads owned
	frames  [][]byte              // their encoded frames
	batches [][]*wire.ClientRequest
	values  [][]byte // encoded batches
	rate    float64  // the workload's load rate, ops/s
}

func newLayerInput(ops []op, rate float64) (*layerInput, error) {
	in := &layerInput{rate: rate}
	for i := range ops {
		f := ops[i].frame
		if ops[i].kind == opGet {
			f = ops[i].fallback
		}
		msg, err := wire.Unmarshal(f)
		if err != nil {
			return nil, fmt.Errorf("layer input: %w", err)
		}
		req := msg.(*wire.ClientRequest)
		wire.Retain(req)
		in.reqs = append(in.reqs, req)
		in.frames = append(in.frames, f)
	}
	return in, nil
}

// traceLayers runs every layer's spans and returns the per-layer metrics.
func traceLayers(tr *tracer, in *layerInput, scratch string) (map[string]float64, error) {
	m := map[string]float64{}
	traceWire(tr, in, m)
	traceBatch(tr, in, m)
	traceWireBatch(tr, in, m)
	if err := tracePaxos(tr, in, m); err != nil {
		return nil, err
	}
	if err := traceWAL(tr, in, m, scratch); err != nil {
		return nil, err
	}
	traceReplyCache(tr, in, m)
	traceService(tr, in, m)
	traceExecutor(tr, in, m)
	traceQueue(tr, m)
	if err := traceTransport(tr, m); err != nil {
		return nil, err
	}
	return m, nil
}

func traceWire(tr *tracer, in *layerInput, m map[string]float64) {
	root := tr.begin("layer.wire", -1)
	for _, req := range in.reqs {
		id := tr.begin("wire.marshal_request", root)
		_ = wire.Marshal(req)
		tr.end(id)
	}
	for _, f := range in.frames {
		id := tr.begin("wire.unmarshal_request", root)
		msg, err := wire.Unmarshal(f)
		tr.end(id)
		if err == nil {
			wire.Release(msg)
		}
	}
	tr.end(root)
	m["wire.marshal_request_ns"] = tr.medianNs("wire.marshal_request")
	m["wire.unmarshal_request_ns"] = tr.medianNs("wire.unmarshal_request")
	m["wire.marshal_request.allocs"] = allocsPer(len(in.reqs), func(i int) { _ = wire.Marshal(in.reqs[i]) })
	m["wire.unmarshal_request.allocs"] = allocsPer(len(in.frames), func(i int) {
		if msg, err := wire.Unmarshal(in.frames[i]); err == nil {
			wire.Release(msg)
		}
	})
}

// traceBatch fills batches under the default policy, as the Batcher does
// under load (every batch flushes full).
func traceBatch(tr *tracer, in *layerInput, m map[string]float64) {
	root := tr.begin("layer.batch", -1)
	b := batch.NewBuilder(batch.Policy{})
	var cur []*wire.ClientRequest
	id := -1
	for _, req := range in.reqs {
		if !b.Fits(req) {
			in.values = append(in.values, b.Flush())
			in.batches = append(in.batches, cur)
			tr.end(id)
			cur, id = nil, -1
		}
		if id < 0 {
			id = tr.begin("batch.fill_flush", root)
		}
		cur = append(cur, req)
		if b.Add(req) {
			in.values = append(in.values, b.Flush())
			in.batches = append(in.batches, cur)
			tr.end(id)
			cur, id = nil, -1
		}
	}
	if id >= 0 {
		in.values = append(in.values, b.Flush())
		in.batches = append(in.batches, cur)
		tr.end(id)
	}
	tr.end(root)
	m["batch.fill_flush_ns"] = tr.medianNs("batch.fill_flush")
	m["batch.reqs_per_batch"] = float64(len(in.reqs)) / float64(len(in.batches))
}

func traceWireBatch(tr *tracer, in *layerInput, m map[string]float64) {
	root := tr.begin("layer.wire.batch", -1)
	for _, reqs := range in.batches {
		id := tr.begin("wire.encode_batch", root)
		_ = wire.EncodeBatch(reqs)
		tr.end(id)
	}
	var dst []*wire.ClientRequest
	decode := func(v []byte) {
		out, err := wire.DecodeBatchInto(dst[:0], v)
		if err == nil {
			for _, r := range out {
				wire.Release(r)
			}
			dst = out
		}
	}
	for _, v := range in.values {
		id := tr.begin("wire.decode_batch", root)
		decode(v)
		tr.end(id)
	}
	tr.end(root)
	m["wire.encode_batch_ns"] = tr.medianNs("wire.encode_batch")
	m["wire.decode_batch_ns"] = tr.medianNs("wire.decode_batch")
	m["wire.encode_batch.allocs"] = allocsPer(len(in.batches), func(i int) { _ = wire.EncodeBatch(in.batches[i]) })
	m["wire.decode_batch.allocs"] = allocsPer(len(in.values), func(i int) { decode(in.values[i]) })
}

// tracePaxos decides every batch on three paxos.Nodes wired in memory:
// each message is marshaled, delivered and unmarshaled in FIFO order.
func tracePaxos(tr *tracer, in *layerInput, m map[string]float64) error {
	root := tr.begin("layer.paxos", -1)
	var nodes [clusterSize]*paxos.Node
	for i := range nodes {
		nodes[i] = paxos.NewNode(paxos.Options{ID: i, N: clusterSize})
	}
	type msg struct {
		from, to int
		b        []byte
	}
	var q []msg
	msgs, bytes, decided := 0, 0, 0
	emit := func(from int, e paxos.Effects) {
		for _, s := range e.Sends {
			b := wire.Marshal(s.Msg)
			for to := range nodes {
				if to == from || (s.To != paxos.Broadcast && s.To != to) {
					continue
				}
				q = append(q, msg{from, to, b})
				msgs++
				bytes += len(b) + 4 // frame length prefix
			}
		}
		if from == 0 {
			decided += len(e.Decisions)
		}
	}
	pump := func() error {
		for len(q) > 0 {
			x := q[0]
			q = q[1:]
			wm, err := wire.Unmarshal(x.b)
			if err != nil {
				return fmt.Errorf("paxos trace: %w", err)
			}
			emit(x.to, nodes[x.to].HandleMessage(x.from, wm))
		}
		return nil
	}
	emit(0, nodes[0].Start())
	if err := pump(); err != nil {
		return err
	}
	if !nodes[0].IsLeader() {
		return fmt.Errorf("paxos trace: node 0 did not become leader")
	}
	msgs, bytes, decided = 0, 0, 0
	for _, v := range in.values {
		id := tr.begin("paxos.decide", root)
		e, ok := nodes[0].ProposeBatch(v)
		if !ok {
			return fmt.Errorf("paxos trace: window closed")
		}
		emit(0, e)
		if err := pump(); err != nil {
			return err
		}
		tr.end(id)
	}
	tr.end(root)
	if decided != len(in.values) {
		return fmt.Errorf("paxos trace: %d of %d batches decided", decided, len(in.values))
	}
	m["paxos.decide_ns"] = tr.medianNs("paxos.decide")
	m["paxos.msgs_per_decide"] = float64(msgs) / float64(decided)
	m["paxos.bytes_per_decide"] = float64(bytes) / float64(decided)
	return nil
}

// traceWAL journals every batch as an accept record on a WAL with the
// default (group commit) policy, paced at the workload's batch rate so
// group commit sees the arrival pattern it sees under load.
func traceWAL(tr *tracer, in *layerInput, m map[string]float64, scratch string) error {
	dir := filepath.Join(scratch, "wal")
	defer os.RemoveAll(dir)
	var syncs atomic.Int64
	w, _, err := wal.Open(wal.Options{Dir: dir, OnDurable: func(int64) { syncs.Add(1) }})
	if err != nil {
		return fmt.Errorf("wal trace: %w", err)
	}
	root := tr.begin("layer.wal", -1)
	gap := time.Duration(float64(time.Second) * float64(len(in.reqs)) / float64(len(in.values)) / in.rate)
	next := time.Now()
	for i, v := range in.values {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(gap)
		id := tr.begin("wal.append", root)
		w.Append(wal.Record{Type: wal.RecAccept, ID: wire.InstanceID(i), Value: v})
		tr.end(id)
	}
	for w.DurableLSN() < w.AppendedLSN() {
		time.Sleep(100 * time.Microsecond)
	}
	tr.end(root)
	if err := w.Failed(); err != nil {
		return fmt.Errorf("wal trace: %w", err)
	}
	m["wal.append_ns"] = tr.medianNs("wal.append")
	m["wal.fsync_ms"] = float64(w.FsyncEWMA()) / 1e6
	m["wal.records_per_fsync"] = float64(len(in.values)) / float64(max(1, syncs.Load()))
	w.Close()
	return nil
}

func traceReplyCache(tr *tracer, in *layerInput, m map[string]float64) {
	root := tr.begin("layer.replycache", -1)
	c := replycache.NewSharded()
	reply := []byte{service.KVOK}
	for _, req := range in.reqs {
		id := tr.begin("replycache.lookup", root)
		_, _ = c.Lookup(nil, req.ClientID, req.Seq)
		tr.end(id)
		id = tr.begin("replycache.update", root)
		c.Update(nil, req.ClientID, req.Seq, reply)
		tr.end(id)
	}
	tr.end(root)
	m["replycache.lookup_ns"] = tr.medianNs("replycache.lookup")
	m["replycache.update_ns"] = tr.medianNs("replycache.update")
}

func traceService(tr *tracer, in *layerInput, m map[string]float64) {
	root := tr.begin("layer.service", -1)
	kv := service.NewKV()
	// Classify by the command byte: PUTs first (they populate the store),
	// then GETs over the same keys.
	var puts, gets [][]byte
	for _, req := range in.reqs {
		if isGet(req.Payload) {
			gets = append(gets, req.Payload)
		} else {
			puts = append(puts, req.Payload)
		}
	}
	for _, p := range puts {
		id := tr.begin("service.kv_put", root)
		kv.Execute(p)
		tr.end(id)
	}
	for _, p := range puts {
		// Every workload reads: time GETs of the keys just written.
		g := service.EncodeGet(string(putKey(p)))
		gets = append(gets, g)
	}
	for _, g := range gets {
		id := tr.begin("service.kv_get", root)
		kv.Execute(g)
		tr.end(id)
	}
	tr.end(root)
	m["service.kv_put_ns"] = tr.medianNs("service.kv_put")
	m["service.kv_get_ns"] = tr.medianNs("service.kv_get")
}

// isGet reports whether a KV command is a GET (its opcode matches the one
// EncodeGet writes).
func isGet(cmd []byte) bool {
	get := service.EncodeGet("")
	return len(cmd) > 0 && cmd[0] == get[0]
}

// putKey extracts the key of a PUT command: opcode, u32 length, key.
func putKey(cmd []byte) []byte {
	if len(cmd) < 5 {
		return nil
	}
	n := int(uint32(cmd[1]) | uint32(cmd[2])<<8 | uint32(cmd[3])<<16 | uint32(cmd[4])<<24)
	if 5+n > len(cmd) {
		return nil
	}
	return cmd[5 : 5+n]
}

// traceExecutor submits each command to an executor configured as the
// replicas configure theirs by default (sequential: Submit runs the task).
func traceExecutor(tr *tracer, in *layerInput, m map[string]float64) {
	root := tr.begin("layer.executor", -1)
	kv := service.NewKV()
	ex := executor.New(executor.Config{Keys: kv.Keys})
	ex.Start()
	for _, req := range in.reqs {
		p := req.Payload
		id := tr.begin("executor.submit", root)
		ex.Submit(nil, p, func(*profiling.Thread) { kv.Execute(p) })
		tr.end(id)
	}
	ex.Stop()
	tr.end(root)
	m["executor.submit_ns"] = tr.medianNs("executor.submit")
}

// traceQueue measures the Put→Take handoff between two goroutines on a
// queue.Bounded, the hop a request makes between pipeline stages.
func traceQueue(tr *tracer, m map[string]float64) {
	const n = 2000
	root := tr.begin("layer.queue", -1)
	q := queue.NewBounded[int64]("bench", 1024)
	took := make([]int64, 0, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range n {
			v, err := q.Take(nil)
			if err != nil {
				return
			}
			took = append(took, v, tr.now())
		}
	}()
	var puts []int64
	for range n {
		t := tr.now()
		puts = append(puts, t)
		if err := q.Put(nil, t); err != nil {
			break
		}
		time.Sleep(20 * time.Microsecond)
	}
	<-done
	q.Close()
	for i := 0; i+1 < len(took); i += 2 {
		tr.add("queue.put_take", root, took[i], took[i+1])
	}
	tr.end(root)
	m["queue.put_take_ns"] = tr.medianNs("queue.put_take")
}

// traceTransport measures round trips of a 128-byte frame over a loopback
// TCP connection of the production transport, echoed by a peer goroutine.
func traceTransport(tr *tracer, m map[string]float64) error {
	netw := &transport.TCP{}
	l, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("transport trace: %w", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			f, err := c.ReadFrame()
			if err != nil || c.WriteFrame(f) != nil {
				return
			}
		}
	}()
	c, err := netw.Dial(l.Addr())
	if err != nil {
		l.Close()
		<-done
		return fmt.Errorf("transport trace: %w", err)
	}
	root := tr.begin("layer.transport", -1)
	frame := make([]byte, 128)
	for range 1000 {
		id := tr.begin("transport.tcp_rtt", root)
		if err := c.WriteFrame(frame); err != nil {
			break
		}
		if _, err := c.ReadFrame(); err != nil {
			break
		}
		tr.end(id)
	}
	tr.end(root)
	c.Close()
	l.Close()
	<-done
	m["transport.tcp_rtt_us"] = tr.medianNs("transport.tcp_rtt") / 1e3
	return nil
}
