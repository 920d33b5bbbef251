package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"gosmr/internal/service"
	"gosmr/internal/wire"
)

// Traffic shape: keys uniform over numKeys, valueBytes-byte values. A PUT
// request is ~136 bytes on the wire, the paper's ~128 B requests.
const (
	numKeys    = 10000
	valueBytes = 100
	// numClients logical client IDs are multiplexed over the generator's
	// connections, each with at most one request outstanding. It must cover
	// rate × worst latency: 5k ops/s through a ~0.7 s failover is ~3.5k.
	numClients = 8192
	// clientBase offsets the generator's client IDs away from the set-up
	// probe's ID and from the reserved config ID 0.
	clientBase = 1 << 20
)

// Op kinds.
const (
	opPut uint8 = iota + 1
	opGet
)

// Where an op is sent first.
const (
	toLeader   uint8 = iota // ordered write, or a lease read on the leaseholder
	toFollower              // read-index read on follower 1
)

// op is one scheduled request and, once run, its outcome. The generator
// gives due times from the phase start; runPhase shifts them onto the
// engine's clock (nanoseconds since the engine started). 0 means "not yet".
type op struct {
	kind   uint8
	target uint8
	key    uint32
	ver    uint32 // PUT: version written; GET: version returned
	client uint32 // index into the client table
	seq    uint64 // primary sequence number; a read's ordered fallback uses seq+1
	due    int64
	sent   int64 // first send (the invocation time)
	acked  int64
	status byte // KV status of the reply
	state  uint8
	// lastSend is when the op was last (re)sent; a reply overdue from it
	// triggers a resend.
	lastSend int64
	frame    []byte
	// fallback is a read's ordered ClientRequest, sent when the read path
	// bounces it.
	fallback []byte
}

// Op states.
const (
	stPending  uint8 = iota // not sent yet
	stPrimary               // frame sent, awaiting its reply
	stFallback              // read bounced; ordered fallback sent
	stDone                  // acknowledged
	stFailed                // never acknowledged within the phase
)

// mix describes one phase's traffic.
type mix struct {
	rate     float64       // offered ops/s
	dur      time.Duration // schedule length
	readFrac float64       // share of ops that are linearizable GETs
}

// generator makes the seeded op sequence. It carries per-key versions and
// per-client sequence numbers across phases, so every phase of one run
// continues the same history.
type generator struct {
	rng     *rand.Rand
	nextVer [numKeys]uint32
	nextSeq [numClients]uint64
	nextCli int
	reads   int // GETs generated so far, for the read routing cycle
}

func newGenerator(seed uint64) *generator {
	g := &generator{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
	for i := range g.nextSeq {
		g.nextSeq[i] = 1
	}
	return g
}

func keyName(k uint32) string { return fmt.Sprintf("k%05d", k) }

func clientID(idx uint32) uint64 { return clientBase + uint64(idx) }

// readTarget routes the n-th read: reads alternate between the leaseholder
// and follower 1 in a 2:1 cycle. The two paths differ by about a batch delay
// (a follower waits for its execution to reach the read index), so an even
// split would put the median read exactly on the boundary between the two
// modes, where it flips between them from run to run.
func readTarget(n int) uint8 {
	if n%3 == 2 {
		return toFollower
	}
	return toLeader
}

// phase generates the ops of one phase: evenly spaced due times at m.rate,
// keys uniform, reads with probability m.readFrac, routed by readTarget. Clients are assigned round-robin, so an op's
// client last served the op numClients positions earlier.
func (g *generator) phase(m mix) []op {
	n := int(m.rate * m.dur.Seconds())
	if n < 1 {
		n = 1
	}
	gap := float64(time.Second) / m.rate
	ops := make([]op, n)
	val := make([]byte, valueBytes)
	for i := range ops {
		o := &ops[i]
		o.due = int64(float64(i) * gap)
		o.key = uint32(g.rng.IntN(numKeys))
		g.assign(o)
		if g.rng.Float64() < m.readFrac {
			g.makeGet(o, readTarget(g.reads))
			g.reads++
			continue
		}
		o.kind = opPut
		o.target = toLeader
		g.nextVer[o.key]++
		o.ver = g.nextVer[o.key]
		fillValue(val, o.key, o.ver, g.rng)
		o.frame = wire.Marshal(&wire.ClientRequest{ClientID: clientID(o.client), Seq: o.seq, Payload: service.EncodePut(keyName(o.key), val)})
	}
	return ops
}

// assign gives o the next client round-robin and that client's next pair
// of sequence numbers (a read's fallback uses the second).
func (g *generator) assign(o *op) {
	o.client = uint32(g.nextCli)
	g.nextCli = (g.nextCli + 1) % numClients
	o.seq = g.nextSeq[o.client]
	g.nextSeq[o.client] += 2
}

// makeGet makes o a linearizable GET of o.key sent first to target, with its
// ordered fallback.
func (g *generator) makeGet(o *op, target uint8) {
	o.kind, o.target = opGet, target
	id := clientID(o.client)
	get := service.EncodeGet(keyName(o.key))
	o.frame = wire.Marshal(&wire.ClientRead{ClientID: id, Seq: o.seq, Consistency: wire.ReadLinearizable, Payload: get})
	o.fallback = wire.Marshal(&wire.ClientRequest{ClientID: id, Seq: o.seq + 1, Payload: get})
}

// verify generates one linearizable read of every key ever written, all
// addressed to the leaseholder: the final no-lost-write check.
func (g *generator) verify(rate float64) []op {
	var ops []op
	gap := float64(time.Second) / rate
	for k := range uint32(numKeys) {
		if g.nextVer[k] == 0 {
			continue
		}
		o := op{key: k, due: int64(float64(len(ops)) * gap)}
		g.assign(&o)
		g.makeGet(&o, toLeader)
		ops = append(ops, o)
	}
	return ops
}

// fillValue writes a PUT value: version and key first, so a GET's reply
// names the write it observed, then seeded filler.
func fillValue(v []byte, key, ver uint32, rng *rand.Rand) {
	binary.LittleEndian.PutUint32(v[0:], ver)
	binary.LittleEndian.PutUint32(v[4:], key)
	for i := 8; i < len(v); i += 8 {
		x := rng.Uint64()
		for j := 0; j < 8 && i+j < len(v); j++ {
			v[i+j] = byte(x >> (8 * j))
		}
	}
}

// valueVersion extracts the version from a stored value (0 when absent or
// malformed).
func valueVersion(v []byte) uint32 {
	if len(v) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}
