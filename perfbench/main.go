// Command perfbench is the benchmark of record for gosmr: a 3-replica KV
// cluster over real TCP loopback, driven in the same process by an
// open-loop, seeded load generator. It reports client-observed latency,
// capacity, cost per op and failover time, checks that the cluster's
// answers are correct, and with -trace 1 reports per-layer figures instead.
//
//	perfbench -workload put-mem -seed 1 -seconds 20 -trace 0 -out DIR
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. Diagnostics go to standard error. The exit code is
// non-zero when a correctness check fails or the run is invalid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"gosmr/internal/profiling"
)

// workload is one traffic mix and cluster shape.
type workload struct {
	rate     float64 // load-phase rate, ops/s
	readFrac float64
	// leaseSetup makes set-up wait for a valid lease (read-mostly).
	leaseSetup bool
	// searchFrom is the first rate the max_ops_s search offers; the search
	// moves up or down from it, so it only sets how many steps it takes.
	searchFrom float64
}

// readProbe is the share of linearizable GETs in the write workloads: enough
// reads to give read_p50/p90 their ten samples beyond, few enough to leave
// the write path doing the work.
const readProbe = 0.02

// workloads are the traffic mixes. Replicas keep their state in memory.
var workloads = map[string]workload{
	"put-mem":     {rate: 20000, readFrac: readProbe, searchFrom: 60000},
	"read-mostly": {rate: 10000, readFrac: 0.9, leaseSetup: true, searchFrom: 70000},
}

const (
	floorRate = 1000.0
	// faultRate is the rate of the fault phase that ends every run.
	faultRate = 2000.0
	// verifyRate paces the final read of every written key.
	verifyRate = 20000.0
	setups     = 9
	// phaseWindows: see windows. lateWindowMs is the generator lateness p99
	// above which a window is reported as late. Undisturbed, the p99 reads
	// ~1.1 ms on a 2-vCPU VM at the floor and load rates; under host CPU
	// steal, 3-8 ms.
	phaseWindows = 8
	lateWindowMs = 2.0
	// stealLimit is the share of the VM's CPU time the hypervisor may take
	// (the steal column of /proc/stat) during a floor or load window or a
	// search step before the interval counts as disturbed. On a 2-vCPU VM it reads 0-3%
	// undisturbed and 10-40% in disturbed minutes, when the capacity found
	// falls by as much.
	stealLimit = 0.05
	// stolenRetries bounds how many disturbed search steps are offered
	// again, so a run on a host that stays disturbed still ends in time.
	stolenRetries = 6
	// maxLatenessMs bounds the generator's p99 lateness (send time minus
	// due time) over the steady windows of the floor and load phases; above
	// it the generator, not the cluster, set the schedule and the run is
	// invalid. On a 2-vCPU VM the p99 reads 1-7 ms; 25 ms is five batch
	// delays, where the generator would own the tail. Under 35-55% host
	// steal, a whole phase has read 25-39 ms: those windows are not steady
	// and are not judged.
	maxLatenessMs = 25.0
)

// plan is the phase schedule, scaled from -seconds (20 s nominal).
type plan struct {
	warm, floor, load, settle, step, fault, faultStop time.Duration
	drain                                             time.Duration
}

func newPlan(seconds int) plan {
	s := func(sec float64) time.Duration {
		return time.Duration(sec * float64(seconds) / 20 * float64(time.Second))
	}
	return plan{warm: s(0.5), floor: s(8), load: s(8), settle: s(0.2), step: s(0.8), fault: s(3), faultStop: s(1), drain: 5 * time.Second}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func main() {
	name := flag.String("workload", "put-mem", "workload: put-mem or read-mostly")
	seed := flag.Uint64("seed", 1, "seed of the generated op sequence")
	seconds := flag.Int("seconds", 20, "length of the measured schedule, seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics and a span file")
	out := flag.String("out", ".bench_build", "directory for the traced WAL and trace files")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// A run must end within 180 s; a cluster that hangs in Stop must not
	// hold it past that.
	time.AfterFunc(170*time.Second, func() {
		logf("perfbench: run exceeded 170 s")
		os.Exit(1)
	})
	r := &runner{name: *name, w: w, seed: *seed, plan: newPlan(*seconds), out: *out}
	res, err := r.run(*trace == 1)
	r.cleanup()
	if res != nil {
		b, _ := json.Marshal(res)
		fmt.Println(string(b))
	}
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
}

type runner struct {
	name string
	w    workload
	seed uint64
	plan plan
	out  string
	// Run-wide accounting: every phase except search steps.
	attempted, failed int
}

// scratch is the run's directory for the traced WAL.
func (r *runner) scratch() string {
	return filepath.Join(r.out, "data", fmt.Sprintf("%s-%d", r.name, os.Getpid()))
}

func (r *runner) cleanup() {
	if err := os.RemoveAll(r.scratch()); err != nil {
		logf("perfbench: cleanup: %v", err)
	}
}

// setUp builds a cluster and waits for its first acknowledged write (and
// lease, on read-mostly), returning the elapsed time.
func (r *runner) setUp(traced bool) (*cluster, time.Duration, error) {
	t0 := time.Now()
	c, err := startCluster(traced)
	if err != nil {
		return nil, 0, err
	}
	if err := c.firstWrite(r.w.leaseSetup, 10*time.Second); err != nil {
		c.stop()
		return nil, 0, err
	}
	return c, time.Since(t0), nil
}

// session is one cluster with its generator, engine and history.
type session struct {
	c *cluster
	e *engine
	g *generator
	h *history
	r *runner
}

func (r *runner) newSession(c *cluster) (*session, error) {
	e, err := newEngine(c.clients, 0)
	if err != nil {
		return nil, err
	}
	return &session{c: c, e: e, g: newGenerator(r.seed), h: &history{}, r: r}, nil
}

func (s *session) close() {
	s.e.close()
	s.c.stop()
}

// run plays one phase of already generated ops.
func (s *session) run(name string, ops []op, po phaseOpts) (phaseRun, error) {
	pr := s.e.runPhase(ops, po)
	if pr.stalled {
		return pr, fmt.Errorf("%s phase: no reply for %v, the cluster stopped making progress", name, stallTimeout)
	}
	return pr, nil
}

// account summarizes a played phase and records it in the history. counted
// phases enter the run's attempted/failed totals.
func (s *session) account(name string, rate float64, ops []op, counted bool) (phaseStats, error) {
	st := summarize(ops)
	if err := s.h.record(ops); err != nil {
		return st, err
	}
	if counted {
		s.r.attempted += st.attempted
		s.r.failed += st.failed
	}
	logf("%-8s rate=%-7.0f writes[%v] reads[%v] late[%v] failed=%d unsent=%d",
		name, rate, st.writes, st.reads, st.lateness, st.failed, st.neverSent)
	return st, nil
}

// play generates, runs and accounts one unmeasured phase.
func (s *session) play(name string, m mix, po phaseOpts, counted bool) (phaseRun, phaseStats, error) {
	ops := s.g.phase(m)
	pr, err := s.run(name, ops, po)
	if err != nil {
		return pr, phaseStats{}, err
	}
	st, err := s.account(name, m.rate, ops, counted)
	return pr, st, err
}

// snapshot is the process- and replica-level counters read at a phase
// boundary.
type snapshot struct {
	at        time.Time
	cpu       time.Duration
	mallocs   uint64
	heapBytes uint64
	gcCPU     float64
	totalCPU  float64
	executed  uint64
	batches   uint64
	localRead uint64
	queues    map[string]float64
	dups      uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// snap reads the counters, the replica ones from leader. Local reads are
// summed over every replica but exclude (a stopped one; -1 for none).
func (s *session) snap(leader, exclude int) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(runtimeSamples)
	rep := s.c.reps[leader]
	sn := snapshot{
		at:        time.Now(),
		cpu:       processCPU(),
		mallocs:   ms.Mallocs,
		heapBytes: ms.TotalAlloc,
		gcCPU:     runtimeSamples[0].Value.Float64(),
		totalCPU:  runtimeSamples[1].Value.Float64(),
		executed:  rep.Executed(),
		batches:   rep.DecidedBatches(),
		queues:    rep.QueueStats(),
		dups:      s.e.c.dups + s.e.c.stale,
	}
	for id, rp := range s.c.reps {
		if id != exclude {
			sn.localRead += rp.LocalReads()
		}
	}
	return sn
}

// loadFigures are the load-phase results, end to end and per layer.
type loadFigures struct {
	st     phaseStats
	cpuUs  float64
	allocs float64
	layer  map[string]float64
}

var queueNames = []string{"RequestQueue", "ProposalQueue", "DispatcherQueue", "DecisionQueue", "MergeQueue"}

func (s *session) loadFigures(st phaseStats, a, b snapshot) loadFigures {
	done := st.attempted - st.failed
	f := loadFigures{st: st, layer: map[string]float64{}}
	per := func(x float64) float64 { return x / float64(max(1, done)) }
	f.cpuUs = per(float64(b.cpu-a.cpu) / 1e3)
	f.allocs = per(float64(b.mallocs - a.mallocs))
	f.layer["runtime.alloc_bytes_per_op"] = per(float64(b.heapBytes - a.heapBytes))
	if d := b.totalCPU - a.totalCPU; d > 0 {
		f.layer["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / d
	}
	if d := b.batches - a.batches; d > 0 {
		f.layer["core.batcher.ops_per_batch"] = float64(b.executed-a.executed) / float64(d)
	}
	for _, q := range queueNames {
		f.layer["core.queue."+q+".avg_len"] = windowAvg(s.c.created, a.at, b.at, a.queues[q], b.queues[q])
	}
	if reads := len(st.reads); reads > 0 {
		f.layer["core.reads.local_ratio"] = float64(b.localRead-a.localRead) / float64(reads)
	}
	f.layer["core.clientio.dup_reply_ratio"] = float64(b.dups-a.dups) / float64(max(1, st.putsAcked))
	return f
}

// faultFigures are the fault phase's results.
type faultFigures struct {
	unavailMs, newLeaderMs float64
	viewChanges            int32
}

// faultPhase runs the workload's mix at faultRate with the leader stopping
// partway; redirects and retries are charged from each op's due time.
func (s *session) faultPhase() (faultFigures, error) {
	p := s.r.plan
	m := mix{rate: faultRate, dur: p.fault, readFrac: s.r.w.readFrac}
	old := s.c.leader()
	if old < 0 {
		return faultFigures{}, fmt.Errorf("fault phase: no leader")
	}
	next := (old + 1) % clusterSize
	var viewBefore int32
	for id, rp := range s.c.reps {
		if id != old {
			viewBefore = max(viewBefore, rp.View())
		}
	}
	var stopAt, electedAt time.Time
	elected := make(chan struct{})
	action := func() {
		stopAt = time.Now()
		go func() {
			defer close(elected)
			for time.Since(stopAt) < 10*time.Second {
				for id, rp := range s.c.reps {
					if id != old && rp.IsLeader() {
						electedAt = time.Now()
						return
					}
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
		s.c.stopReplica(old)
	}
	ops := s.g.phase(m)
	pr, err := s.run("fault", ops, phaseOpts{drain: p.drain, actionAt: p.faultStop, action: action})
	if err != nil {
		return faultFigures{}, err
	}
	<-elected
	survivor := s.c.leader()
	if survivor < 0 || electedAt.IsZero() {
		return faultFigures{}, fmt.Errorf("fault phase: no new leader after stopping replica %d", old)
	}
	if survivor != next {
		return faultFigures{}, fmt.Errorf("fault phase: replica %d took over, not %d", survivor, next)
	}
	if _, err := s.account("fault", m.rate, ops, true); err != nil {
		return faultFigures{}, err
	}
	return faultFigures{
		unavailMs:   longestAckGap(ops, pr.actionAt) / 1e6,
		newLeaderMs: float64(electedAt.Sub(stopAt)) / 1e6,
		viewChanges: s.c.reps[survivor].View() - viewBefore,
	}, nil
}

// longestAckGap is the longest interval after from with no write
// acknowledged, counting from from itself to the first acknowledgement.
func longestAckGap(ops []op, from int64) float64 {
	var acks []int64
	for i := range ops {
		if ops[i].kind == opPut && ops[i].state == stDone && ops[i].acked >= from {
			acks = append(acks, ops[i].acked)
		}
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
	gap, prev := 0.0, from
	for _, t := range acks {
		gap = math.Max(gap, float64(t-prev))
		prev = t
	}
	return gap
}

// verify reads every written key back from the leader and runs the read
// checks over the whole history.
func (s *session) verify() error {
	if err := s.c.converged(5 * time.Second); err != nil {
		return err
	}
	ops := s.g.verify(verifyRate)
	if pr := s.e.runPhase(ops, phaseOpts{drain: s.r.plan.drain}); pr.stalled {
		return fmt.Errorf("final read: no reply for %v, the cluster stopped making progress", stallTimeout)
	}
	st := summarize(ops)
	s.r.attempted += st.attempted
	s.r.failed += st.failed
	if st.failed > 0 {
		return fmt.Errorf("final read: %d of %d keys unread", st.failed, len(ops))
	}
	if err := s.h.record(ops); err != nil {
		return err
	}
	n, err := s.h.check()
	if err != nil {
		return err
	}
	c := s.e.c
	if c.unexpected > 0 || c.wrongKey > 0 {
		return fmt.Errorf("replies: %d unexpected, %d with another key's value", c.unexpected, c.wrongKey)
	}
	logf("checked  %d reads; replies=%d dups=%d stale=%d resends=%d redirects=%d bounces=%d",
		n, c.replies, c.dups, c.stale, c.resends, c.redirects, c.bounces)
	return nil
}

// windowed is a phase played as phaseWindows windows.
type windowed struct {
	wins [][]op
	// steady are the windows in which the hypervisor took at most
	// stealLimit of the VM's CPU time, or every window when fewer than
	// three are.
	steady [][]op
	// a and b are the leader's counters read just before the first window
	// and just after the last.
	a, b snapshot
	// cpuUs is the median over the steady windows of the process CPU time
	// per completed op, µs.
	cpuUs float64
}

// windows plays m as phaseWindows windows of m.dur, back to back. Every
// window is generated before the first starts and accounted after the last
// ends, so the generator's and the checker's work fall outside the counters.
// Latency and CPU figures are medians over the steady windows, so neither
// host steal nor up to three otherwise disturbed windows move them. Steal
// comes from outside the process: a change that makes the replicas
// hungrier is not filtered out with the windows it slows.
func (s *session) windows(name string, m mix) (windowed, error) {
	wd := windowed{wins: make([][]op, phaseWindows)}
	for i := range wd.wins {
		wd.wins[i] = s.g.phase(m)
	}
	cpu := make([]time.Duration, len(wd.wins))
	steal := make([]float64, len(wd.wins))
	wd.a = s.snap(0, -1)
	for i, ops := range wd.wins {
		c0, h0 := processCPU(), readHostCPU()
		if _, err := s.run(name, ops, phaseOpts{drain: s.r.plan.drain}); err != nil {
			return wd, err
		}
		cpu[i], steal[i] = processCPU()-c0, stolen(h0, readHostCPU())
	}
	wd.b = s.snap(0, -1)
	late := 0
	var all, steady []float64
	for i, ops := range wd.wins {
		st, err := s.account(name, m.rate, ops, true)
		if err != nil {
			return wd, err
		}
		if st.lateness.pct(0.99) > lateWindowMs {
			late++
		}
		us := float64(cpu[i]) / 1e3 / float64(max(1, st.attempted-st.failed))
		all = append(all, us)
		if steal[i] <= stealLimit {
			steady = append(steady, us)
			wd.steady = append(wd.steady, ops)
		}
	}
	logf("%-8s %d of %d windows with generator lateness p99 above %.0f ms; %d within %.0f%% host steal %.3f",
		name, late, len(wd.wins), lateWindowMs, len(steady), 100*stealLimit, steal)
	if len(steady) < 3 {
		// The host took the CPU throughout, so late sending says nothing
		// about the generator.
		logf("%-8s host disturbed throughout: generator health not judged", name)
		steady, wd.steady = all, wd.wins
	} else if err := latenessOK(name, summarize(slices.Concat(wd.steady...))); err != nil {
		return wd, err
	}
	wd.cpuUs = median(steady)
	return wd, nil
}

// processCPU is the process's user and system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// search finds max_ops_s on the 3-replica cluster. Each step is preceded by
// a short settle phase at the workload's load rate, so every step starts from
// the same state: an overloaded step leaves a backlog behind it. A step
// during which the hypervisor took more than stealLimit of the VM's CPU time
// measured the host, not the cluster, and is offered again (at most
// stolenRetries times in a search). A failed step is offered once more
// before it counts, so one stall does not end the search.
func (s *session) search() (float64, error) {
	p, w := s.r.plan, s.r.w
	var stepErr error
	retries := 0
	step := func(rate float64) bool {
		for stepErr == nil {
			if !s.c.quiesce(5 * time.Second) {
				logf("step     rate=%.0f: replicas still busy after 5 s", rate)
			}
			settle := mix{rate: w.rate, dur: p.settle, readFrac: w.readFrac}
			if _, _, stepErr = s.play("settle", settle, phaseOpts{drain: p.drain}, false); stepErr != nil {
				return false
			}
			m := mix{rate: rate, dur: p.step, readFrac: w.readFrac}
			po := phaseOpts{drain: time.Second, abortBacklog: max(500, int(rate*0.1))}
			h0 := readHostCPU()
			pr, st, err := s.play("step", m, po, false)
			if stepErr = err; err != nil {
				return false
			}
			if steal := stolen(h0, readHostCPU()); steal > stealLimit && retries < stolenRetries {
				retries++
				logf("step     rate=%.0f disturbed: %.0f%% of the VM's CPU time stolen; offered again", rate, 100*steal)
				continue
			}
			return !pr.aborted && st.sustains()
		}
		return false
	}
	maxOps, tried := searchMax(w.searchFrom, 400000, func(rate float64) bool { return step(rate) || step(rate) })
	logf("search   tried=%.0f max=%.0f", tried, maxOps)
	return maxOps, stepErr
}

// latenessOK applies the generator-health rule to a phase's steady windows.
func latenessOK(name string, st phaseStats) error {
	if p := st.lateness.pct(0.99); p > maxLatenessMs {
		return fmt.Errorf("invalid run: %s phase generator lateness p99 %.2f ms exceeds %.1f ms", name, p, maxLatenessMs)
	}
	return nil
}

func (r *runner) run(traced bool) (*result, error) {
	if traced {
		return r.runTraced()
	}
	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	var setupTimes []float64
	var c *cluster
	for i := range setups {
		ci, d, err := r.setUp(false)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		if i < setups-1 {
			ci.stop()
		} else {
			c = ci
		}
	}
	logf("setup    %v", setupTimes)
	s, err := r.newSession(c)
	if err != nil {
		c.stop()
		return nil, err
	}
	defer s.close()
	p, w := r.plan, r.w

	if _, _, err := s.play("warm", mix{rate: w.rate, dur: p.warm, readFrac: w.readFrac}, phaseOpts{drain: p.drain}, true); err != nil {
		return nil, err
	}
	floor, err := s.windows("floor", mix{rate: floorRate, dur: p.floor / phaseWindows})
	if err != nil {
		return nil, err
	}
	loadWd, err := s.windows("load", mix{rate: w.rate, dur: p.load / phaseWindows, readFrac: w.readFrac})
	if err != nil {
		return nil, err
	}
	load := s.loadFigures(summarize(slices.Concat(loadWd.wins...)), loadWd.a, loadWd.b)
	loadWins := loadWd.steady
	// Peak RSS is read before the capacity search: how much the search
	// offers depends on where the knee falls, and the replicated logs keep
	// every op.
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	if err := c.converged(5 * time.Second); err != nil {
		return nil, err
	}

	maxOps, err := s.search()
	if err != nil {
		return nil, err
	}
	if err := c.converged(5 * time.Second); err != nil {
		return nil, err
	}
	ff, err := s.faultPhase()
	if err != nil {
		return nil, err
	}
	logf("layers   %v fd.new_leader_ms=%.1f paxos.view_changes=%d", load.layer, ff.newLeaderMs, ff.viewChanges)
	if err := s.verify(); err != nil {
		return &result{Correct: false, Attempted: max(1, r.attempted), Failed: r.failed, Metrics: res.Metrics}, err
	}

	// Latency percentiles are medians over windows, so one host stall moves
	// one window, not the figure.
	put("setup_s", median(setupTimes), "s")
	put("floor_write_p50_ms", windowMedian(floor.steady, opPut, 0.5), "ms")
	put("floor_write_p90_ms", windowMedian(floor.steady, opPut, 0.9), "ms")
	put("write_p50_ms", windowMedian(loadWins, opPut, 0.5), "ms")
	put("write_p90_ms", windowMedian(loadWins, opPut, 0.9), "ms")
	put("read_p50_ms", windowMedian(loadWins, opGet, 0.5), "ms")
	put("read_p90_ms", windowMedian(loadWins, opGet, 0.9), "ms")
	put("max_ops_s", maxOps, "ops/s")
	put("cpu_us_per_op", loadWd.cpuUs, "us")
	put("allocs_per_op", load.allocs, "count")
	put("rss_peak_mb", float64(ru.Maxrss)/1024, "MB")
	put("completed_pct", 100*float64(r.attempted-r.failed)/float64(r.attempted), "%")
	put("unavail_ms", ff.unavailMs, "ms")
	res.Correct, res.Attempted, res.Failed = true, r.attempted, r.failed
	return res, nil
}

// threadGroups maps the leader's profiled threads onto the reported names;
// workers and per-peer threads are summed.
var threadGroups = []struct{ name, prefix string }{
	{"ClientIO", "ClientIO-"},
	{"Batcher", "Batcher"},
	{"Protocol", "Protocol"},
	{"ReplicaIOSnd", "ReplicaIOSnd-"},
	{"ReplicaIORcv", "ReplicaIORcv-"},
	{"Merger", "Merger"},
	{"Replica", "Replica"},
	{"ReadManager", "ReadManager"},
}

func threadFracs(reg *profiling.Registry, layer map[string]float64) {
	window := reg.Window()
	stats := reg.Snapshot()
	for _, g := range threadGroups {
		var busy, blocked, waiting float64
		for _, st := range stats {
			perWorker := strings.HasSuffix(g.prefix, "-")
			if st.Name != g.prefix && !(perWorker && strings.HasPrefix(st.Name, g.prefix)) {
				continue
			}
			b, bl, wt, _ := st.Fractions(window)
			busy, blocked, waiting = busy+b, blocked+bl, waiting+wt
		}
		layer["thread."+g.name+".busy_frac"] = busy
		layer["thread."+g.name+".blocked_frac"] = blocked
		layer["thread."+g.name+".waiting_frac"] = waiting
	}
}

// runTraced is the per-layer run: an untraced load phase as the overhead
// baseline, the same load phase on a cluster with per-thread accounting,
// its fault phase, and spans around each layer's exported functions.
func (r *runner) runTraced() (*result, error) {
	p, w := r.plan, r.w
	res := &result{Metrics: map[string]metric{}}
	loadMix := mix{rate: w.rate, dur: p.load, readFrac: w.readFrac}
	phase := func(traced bool) (*session, loadFigures, error) {
		c, _, err := r.setUp(traced)
		if err != nil {
			return nil, loadFigures{}, err
		}
		s, err := r.newSession(c)
		if err != nil {
			c.stop()
			return nil, loadFigures{}, err
		}
		if _, _, err := s.play("warm", mix{rate: w.rate, dur: p.warm, readFrac: w.readFrac}, phaseOpts{drain: p.drain}, true); err != nil {
			s.close()
			return nil, loadFigures{}, err
		}
		ops := s.g.phase(loadMix)
		for _, reg := range c.profs {
			reg.Reset()
		}
		a := s.snap(0, -1)
		if _, err := s.run("load", ops, phaseOpts{drain: p.drain}); err != nil {
			s.close()
			return nil, loadFigures{}, err
		}
		b := s.snap(0, -1)
		st, err := s.account("load", loadMix.rate, ops, true)
		if err != nil {
			s.close()
			return nil, loadFigures{}, err
		}
		return s, s.loadFigures(st, a, b), nil
	}

	base, baseFig, err := phase(false)
	if err != nil {
		return nil, err
	}
	if err := base.verify(); err != nil {
		base.close()
		return &result{Correct: false, Attempted: max(1, r.attempted), Failed: r.failed, Metrics: res.Metrics}, err
	}
	base.close()

	s, fig, err := phase(true)
	if err != nil {
		return nil, err
	}
	defer s.close()
	layer := fig.layer
	threadFracs(s.c.profs[0], layer)
	ff, err := s.faultPhase()
	if err != nil {
		return nil, err
	}
	if err := s.verify(); err != nil {
		return &result{Correct: false, Attempted: max(1, r.attempted), Failed: r.failed, Metrics: res.Metrics}, err
	}
	layer["paxos.view_changes"] = float64(ff.viewChanges)
	layer["fd.new_leader_ms"] = ff.newLeaderMs
	layer["trace.overhead_pct"] = 100 * (fig.cpuUs - baseFig.cpuUs) / baseFig.cpuUs
	layer["generator.lateness_p99_ms"] = fig.st.lateness.pct(0.99)

	// Spans around each layer, fed with this workload's generated requests.
	in, err := newLayerInput(newGenerator(r.seed).phase(mix{rate: w.rate, dur: 100 * time.Millisecond, readFrac: w.readFrac}), w.rate)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	lm, err := traceLayers(tr, in, r.scratch())
	if err != nil {
		return nil, err
	}
	for k, v := range lm {
		layer[k] = v
	}
	dir := filepath.Join(r.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s-seed%d", r.name, r.seed)
	if err := tr.write(filepath.Join(dir, key+".spans.jsonl")); err != nil {
		return nil, err
	}
	for k, v := range layer {
		res.Metrics[k] = metric{Value: v, Unit: layerUnit(k)}
	}
	b, _ := json.MarshalIndent(res.Metrics, "", "  ")
	if err := os.WriteFile(filepath.Join(dir, key+".layers.json"), b, 0o644); err != nil {
		return nil, err
	}
	res.Correct, res.Attempted, res.Failed = true, r.attempted, r.failed
	return res, nil
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_ns", "ns"}, {"_us", "us"}, {"_ms", "ms"}, {"_pct", "%"},
		{"_frac", "ratio"}, {"_ratio", "ratio"},
		{"bytes_per_op", "bytes"}, {"bytes_per_decide", "bytes"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}
