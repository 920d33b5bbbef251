package main

import (
	"fmt"
	"math"

	"gosmr/internal/service"
)

// history records every PUT and acknowledged GET of one cluster's run, on
// the engine's clock, for the read checks.
type history struct {
	// puts[k][v-1] is the PUT that wrote version v of key k. Versions are
	// generated in order and every generated PUT is recorded, sent or not.
	puts [numKeys][]putRec
	gets []getRec
}

type putRec struct {
	sent  int64 // 0: never sent
	acked int64 // math.MaxInt64: never acknowledged (it may still apply)
}

type getRec struct {
	key        uint32
	ver        uint32 // 0: NotFound
	sent, done int64
}

// record adds a finished phase's ops. Phases must be recorded in the order
// they were generated.
func (h *history) record(ops []op) error {
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case opPut:
			if int(o.ver) != len(h.puts[o.key])+1 {
				return fmt.Errorf("history: key %d version %d recorded out of order", o.key, o.ver)
			}
			p := putRec{sent: o.sent, acked: math.MaxInt64}
			if o.state == stDone {
				if o.status != service.KVOK {
					return fmt.Errorf("PUT key %d version %d answered with status %d", o.key, o.ver, o.status)
				}
				p.acked = o.acked
			}
			h.puts[o.key] = append(h.puts[o.key], p)
		case opGet:
			if o.state != stDone {
				continue
			}
			ver := o.ver
			switch o.status {
			case service.KVOK:
			case service.KVNotFound:
				ver = 0
			default:
				return fmt.Errorf("GET key %d answered with status %d", o.key, o.status)
			}
			h.gets = append(h.gets, getRec{key: o.key, ver: ver, sent: o.sent, done: o.acked})
		}
	}
	return nil
}

// check verifies every recorded GET against the PUT history. A linearizable
// read must return a write that was invoked before the read returned and
// that no write acknowledged before the read was sent had overwritten in
// real time — for non-overlapping writes, that is a version at least the
// highest one acknowledged before the read was sent. It returns the number
// of reads checked.
func (h *history) check() (int, error) {
	for _, g := range h.gets {
		puts := h.puts[g.key]
		if int(g.ver) > len(puts) {
			return 0, fmt.Errorf("GET key %d returned version %d, never generated", g.key, g.ver)
		}
		// The write the read observed finished at obsAck (never, for an
		// unacknowledged one; before everything, for the initial absence).
		obsAck := int64(math.MinInt64)
		if g.ver > 0 {
			p := puts[g.ver-1]
			if p.sent == 0 || p.sent > g.done {
				return 0, fmt.Errorf("GET key %d returned version %d before that PUT was sent", g.key, g.ver)
			}
			obsAck = p.acked
		}
		for v, p := range puts {
			if p.acked < g.sent && p.sent > obsAck {
				return 0, fmt.Errorf("GET key %d sent at %dns returned version %d, but version %d was sent after it was acknowledged and acknowledged before the GET (a lost or stale read)",
					g.key, g.sent, g.ver, v+1)
			}
		}
	}
	return len(h.gets), nil
}
