package main

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"gosmr/internal/queue"
	"gosmr/internal/service"
	"gosmr/internal/transport"
	"gosmr/internal/wire"
)

func TestPercentileAndSampleCount(t *testing.T) {
	var v []float64
	for i := 1; i <= 1000; i++ {
		v = append(v, float64(i))
	}
	d := newDist(v)
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
		ok     bool
	}{
		{0.5, 500, 500, true},
		{0.9, 900, 100, true},
		{0.99, 990, 10, true},
		{0.999, 999, 1, false},
	} {
		if got := d.pct(c.p); got != c.want {
			t.Errorf("p%g = %v, want %v", c.p*100, got, c.want)
		}
		if got := d.beyond(c.p); got != c.beyond {
			t.Errorf("beyond p%g = %d, want %d", c.p*100, got, c.beyond)
		}
		if got := d.supported(c.p); got != c.ok {
			t.Errorf("supported p%g = %v, want %v", c.p*100, got, c.ok)
		}
	}
	if !math.IsNaN(newDist(nil).pct(0.5)) {
		t.Error("empty sample must have no percentile")
	}
	// A failed request counts as missing every limit.
	if got := newDist([]float64{1, 2, math.Inf(1)}).pct(0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with a failure = %v, want +Inf", got)
	}
}

func TestWindowMedianIgnoresOneBadWindow(t *testing.T) {
	var wins [][]op
	for w := range 5 {
		lat := int64(time.Millisecond)
		if w == 1 {
			lat = int64(time.Second) // a stall inside the second window
		}
		var ops []op
		for range 100 {
			ops = append(ops, op{kind: opPut, state: stDone, acked: lat})
		}
		wins = append(wins, ops)
	}
	if got := windowMedian(wins, opPut, 0.99); got != 1 {
		t.Errorf("windowed p99 = %v ms, want 1", got)
	}
	if got := latencyPct(slices.Concat(wins...), opPut, 0.99); got != 1000 {
		t.Errorf("whole-phase p99 = %v ms, want 1000", got)
	}
	if got := windowMedian(wins, opGet, 0.5); !math.IsNaN(got) {
		t.Errorf("median of no reads = %v, want NaN", got)
	}
}

// flatten serializes everything the cluster would see of a phase.
func flatten(ops []op) []byte {
	var b bytes.Buffer
	for _, o := range ops {
		b.Write(o.frame)
		b.Write(o.fallback)
		b.WriteByte(o.target)
		var due [8]byte
		for i := range due {
			due[i] = byte(o.due >> (8 * i))
		}
		b.Write(due[:])
	}
	return b.Bytes()
}

func TestSameSeedSameOps(t *testing.T) {
	phases := func(seed uint64) []byte {
		g := newGenerator(seed)
		var b []byte
		for _, m := range []mix{
			{rate: 20000, dur: 50 * time.Millisecond, readFrac: readProbe},
			{rate: 10000, dur: 50 * time.Millisecond, readFrac: 0.9},
		} {
			b = append(b, flatten(g.phase(m))...)
		}
		return append(b, flatten(g.verify(verifyRate))...)
	}
	a, b := phases(42), phases(42)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different op sequences")
	}
	if bytes.Equal(a, phases(43)) {
		t.Fatal("different seeds generated the same op sequence")
	}
}

func TestGeneratedRequestShape(t *testing.T) {
	ops := newGenerator(1).phase(mix{rate: 1000, dur: time.Second, readFrac: 0.5})
	seen := map[uint32]uint32{}
	for _, o := range ops {
		msg, err := wire.Unmarshal(o.frame)
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case *wire.ClientRequest:
			if o.kind != opPut || m.ClientID != clientID(o.client) || m.Seq != o.seq {
				t.Fatalf("PUT frame does not match its op: %+v", o)
			}
			if n := len(o.frame); n < 120 || n > 140 {
				t.Errorf("PUT frame is %d bytes, want ~128", n)
			}
			if o.ver != seen[o.key]+1 {
				t.Fatalf("key %d version %d follows %d", o.key, o.ver, seen[o.key])
			}
			seen[o.key] = o.ver
		case *wire.ClientRead:
			if o.kind != opGet || m.Consistency != wire.ReadLinearizable {
				t.Fatalf("GET frame does not match its op: %+v", o)
			}
		default:
			t.Fatalf("unexpected frame %T", msg)
		}
	}
}

func TestSearchMaxOnSyntheticCurve(t *testing.T) {
	// Write p50 stays flat until the knee at 73k ops/s, then explodes.
	knee := 73000.0
	probe := func(rate float64) bool {
		st := phaseStats{attempted: 1000}
		lat := 1.0
		if rate > knee {
			lat = 50
		}
		st.writes = newDist([]float64{lat, lat, lat})
		return st.sustains()
	}
	for _, start := range []float64{20000, 60000, 100000, 300000} {
		got, tried := searchMax(start, 1e6, probe)
		if got > knee || (knee-got)/got >= 0.05*1.5 {
			t.Errorf("start %v: max %v for a knee at %v (tried %v)", start, got, knee, tried)
		}
		if len(tried) > 12 {
			t.Errorf("start %v: %d steps", start, len(tried))
		}
	}
	// A cluster that sustains no rate has no capacity.
	if got, tried := searchMax(60000, 1e6, func(float64) bool { return false }); got != 0 {
		t.Errorf("nothing sustained: max %v, want 0 (tried %v)", got, tried)
	}
	// A run that loses more than 1% of its ops does not sustain the rate.
	st := phaseStats{attempted: 1000, failed: 11, writes: newDist([]float64{1})}
	if st.sustains() {
		t.Error("a rate completing 98.9% of ops must not count as sustained")
	}
}

func TestWindowAvg(t *testing.T) {
	origin := time.Unix(1000, 0)
	t0, t1 := origin.Add(2*time.Second), origin.Add(6*time.Second)
	// Length 0 for 2 s, then 3 for 4 s: lifetime averages 0 and 2.
	if got := windowAvg(origin, t0, t1, 0, 2); math.Abs(got-3) > 1e-9 {
		t.Errorf("window average = %v, want 3", got)
	}

	// The same on a live queue: empty, then holding three items.
	origin = time.Now()
	q := queue.NewBounded[int]("q", 8)
	time.Sleep(40 * time.Millisecond)
	t0, a0 := time.Now(), q.AvgLen()
	for i := range 3 {
		if err := q.Put(nil, i); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(80 * time.Millisecond)
	t1, a1 := time.Now(), q.AvgLen()
	if got := windowAvg(origin, t0, t1, a0, a1); math.Abs(got-3) > 0.3 {
		t.Errorf("queue window average = %v, want ~3 (lifetime %v)", got, a1)
	}
}

func TestHistoryCheck(t *testing.T) {
	ms := int64(time.Millisecond)
	put := func(key, ver uint32, sent, acked int64) op {
		return op{kind: opPut, key: key, ver: ver, sent: sent, acked: acked, state: stDone, status: service.KVOK}
	}
	get := func(key, ver uint32, sent, acked int64) op {
		return op{kind: opGet, key: key, ver: ver, sent: sent, acked: acked, state: stDone, status: service.KVOK}
	}
	cases := []struct {
		name string
		ops  []op
		ok   bool
	}{
		{"fresh read", []op{put(1, 1, 1*ms, 2*ms), put(1, 2, 3*ms, 4*ms), get(1, 2, 5*ms, 6*ms)}, true},
		{"stale read", []op{put(1, 1, 1*ms, 2*ms), put(1, 2, 3*ms, 4*ms), get(1, 1, 5*ms, 6*ms)}, false},
		{"lost write", []op{put(1, 1, 1*ms, 2*ms), {kind: opGet, key: 1, sent: 3 * ms, acked: 4 * ms, state: stDone, status: service.KVNotFound}}, false},
		// Overlapping writes may apply in either order.
		{"overlapping writes", []op{put(1, 1, 1*ms, 5*ms), put(1, 2, 2*ms, 4*ms), get(1, 1, 6*ms, 7*ms)}, true},
		{"read from the future", []op{put(1, 1, 1*ms, 2*ms), put(1, 2, 8*ms, 9*ms), get(1, 2, 3*ms, 4*ms)}, false},
		{"concurrent write seen early", []op{put(1, 1, 1*ms, 2*ms), put(1, 2, 3*ms, 9*ms), get(1, 2, 4*ms, 5*ms)}, true},
	}
	for _, c := range cases {
		var h history
		if err := h.record(c.ops); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, err := h.check()
		if (err == nil) != c.ok {
			t.Errorf("%s: check error = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// fakeReplica answers every request twice and, once, with a reply for a
// sequence number older than the request's.
func fakeReplica(t *testing.T) (string, func()) {
	t.Helper()
	netw := &transport.TCP{}
	l, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var conns []transport.FrameConn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
			go func() {
				staleSent := false
				for {
					f, err := c.ReadFrame()
					if err != nil {
						return
					}
					msg, err := wire.Unmarshal(f)
					req, ok := msg.(*wire.ClientRequest)
					if err != nil || !ok {
						continue
					}
					ans := func(seq uint64) {
						_ = c.WriteFrame(wire.Marshal(&wire.ClientReply{ClientID: req.ClientID, Seq: seq, OK: true, Redirect: wire.NoRedirect, Payload: []byte{service.KVOK}}))
					}
					ans(req.Seq)
					ans(req.Seq)
					if !staleSent && req.Seq > 2 {
						ans(req.Seq - 2)
						staleSent = true
					}
				}
			}()
		}
	}()
	return l.Addr(), func() { l.Close(); <-done }
}

func TestDuplicateAndStaleRepliesFiltered(t *testing.T) {
	addr, stop := fakeReplica(t)
	defer stop()
	e, err := newEngine([]string{addr, addr}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	g := newGenerator(7)
	// Two rounds over every client, so the second round's seqs make the
	// first round's replies stale.
	ops := g.phase(mix{rate: 200000, dur: 2 * numClients * time.Second / 200000})
	e.runPhase(ops, phaseOpts{drain: 5 * time.Second})
	for i := range ops {
		if ops[i].state != stDone || ops[i].acked < ops[i].sent {
			t.Fatalf("op %d: state %d acked %d sent %d", i, ops[i].state, ops[i].acked, ops[i].sent)
		}
	}
	// Every request got two replies; the second of each is a duplicate,
	// except where the op was already superseded, which makes it stale.
	if got := e.c.replies; got != uint64(len(ops)) {
		t.Errorf("matched replies = %d, want %d", got, len(ops))
	}
	if e.c.dups+e.c.stale < uint64(len(ops)) {
		t.Errorf("dups %d + stale %d < %d ops answered twice", e.c.dups, e.c.stale, len(ops))
	}
	if e.c.stale == 0 {
		t.Error("no stale reply counted")
	}
	if e.c.unexpected != 0 {
		t.Errorf("%d replies counted unexpected", e.c.unexpected)
	}
}

func TestHostSteal(t *testing.T) {
	a := parseHostCPU("cpu  1000 0 500 8000 10 0 40 50 0 0")
	b := parseHostCPU("cpu  1050 0 520 8100 10 0 50 70 0 0")
	if a.steal != 50 || a.total != 9600 {
		t.Fatalf("parsed %+v, want steal 50 of 9600", a)
	}
	if got := stolen(a, b); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("stolen = %v, want 20 of 200 ticks", got)
	}
	if got := stolen(hostCPU{}, parseHostCPU("intr 1 2 3")); got != 0 {
		t.Errorf("an unreadable line gives %v, want 0", got)
	}
}
