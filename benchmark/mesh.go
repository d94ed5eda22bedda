package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distws/internal/comm"
	"distws/internal/metrics"
	"distws/internal/node"
	"distws/internal/service"
	"distws/internal/task"
)

const (
	// echoTask is the registered job every mesh-dispatch submission names:
	// the executor returns the job's argument unchanged.
	echoTask = "bench.echo"
	// argLen is the job argument: job key, submit stamp, caller span id,
	// and seed-drawn filler the echo must return intact.
	argLen = 32
	// replyTimeout bounds one job's wait for its reply; a job that waits
	// longer counts as failed.
	replyTimeout = 5 * time.Second

	// openRate is the open-loop phase's fixed arrival rate (jobs/s).
	openRate = 4000
	// sloLimit is the p99 latency limit a ladder rung must meet.
	sloLimit = 5 * time.Millisecond
	// coordBatches is the batch count of one node.Coordinator run.
	coordBatches = 400
	// warmJobs is the closed-loop job count that warms a fresh build.
	warmJobs = 300
	// closedWindow is the length of one closed-loop sample.
	closedWindow = 500 * time.Millisecond
)

// ladderRates are the fixed rates of the open-loop ladder (jobs/s).
var ladderRates = []int{2000, 4000, 6000, 8000, 10000, 12000}

// tenants are the two tenants sharing the front door, weighted 1:3, with
// no rate or quota limits.
var tenants = map[uint32]service.TenantConfig{1: {Weight: 1}, 2: {Weight: 3}}

// openMeshTCP opens n loopback TCP mesh seats counting into ctrs.
func openMeshTCP(n int, ctrs *metrics.Counters) ([]*comm.TCPMesh, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	meshes := make([]*comm.TCPMesh, n)
	for i := range meshes {
		m, err := comm.ListenMeshTCP(addrs, i, comm.MeshOptions{Listener: lns[i], Counters: ctrs})
		if err != nil {
			for _, o := range meshes[:i] {
				o.Close()
			}
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, fmt.Errorf("mesh seat %d: %w", i, err)
		}
		meshes[i] = m
	}
	return meshes, nil
}

func closeMeshes(ms []*comm.TCPMesh) {
	for _, m := range ms {
		m.Close()
	}
}

// jobArg is the decoded job argument.
type jobArg struct {
	key   uint64
	stamp int64 // ns since the bench epoch, taken just before Submit
	span  int32 // the caller's span id, 0 when untraced
}

// meshBench is the mesh-dispatch workload: a service.Server front door,
// one node.Executor and one client seat on loopback TCP mesh seats, plus
// a separate two-seat mesh where a node.Coordinator drives fresh
// executors. The core scheduler and the simulator are bypassed.
type meshBench struct {
	epoch  time.Time
	rng    *rand.Rand
	tr     atomic.Pointer[tracer]
	wire   metrics.Counters // transport accounting of the service seats
	jobs   metrics.Counters // the server's job accounting
	seats  []*comm.TCPMesh
	srv    *service.Server
	client *service.Client
	served chan error // Server.Serve's result
	exDone chan error // the service executor's Serve result

	coordSeats []*comm.TCPMesh

	mu      sync.Mutex
	execs   map[uint64]int // job key -> executions
	nextKey atomic.Uint64
}

func buildMesh(seed int64) (bench, error) {
	m := &meshBench{epoch: time.Now(), rng: rand.New(rand.NewSource(seed)), execs: map[uint64]int{}}
	reg := task.NewRegistry()
	reg.Register(echoTask, func([]byte) error { return nil })
	var err error
	if m.seats, err = openMeshTCP(3, &m.wire); err != nil {
		return nil, err
	}
	if m.coordSeats, err = openMeshTCP(2, nil); err != nil {
		closeMeshes(m.seats)
		return nil, err
	}
	ex := &node.Executor{Node: m.seats[1], Place: 1, Registry: reg,
		Concurrency: runtime.NumCPU(), Run: m.echo}
	m.exDone = make(chan error, 1)
	go func() {
		_, err := ex.Serve()
		m.exDone <- err
	}()
	m.srv = &service.Server{Node: m.seats[0], Places: 2, Tenants: tenants, Registry: reg, Counters: &m.jobs}
	m.served = make(chan error, 1)
	go func() { m.served <- m.srv.Serve(context.Background()) }()
	m.client = service.NewClient(m.seats[2], 0)

	// Warm the links and pools with a short closed loop.
	r := newRun("warm-up", seed, false)
	if _, _, err := m.closedLoop(r, 0, warmJobs); err != nil || r.failed > 0 {
		m.close()
		return nil, fmt.Errorf("mesh warm-up: %v %v", err, r.failures)
	}
	return m, nil
}

func (m *meshBench) close() {
	m.srv.Drain()
	select {
	case <-m.served:
	case <-time.After(10 * time.Second):
	}
	select {
	case <-m.exDone:
	case <-time.After(10 * time.Second):
	}
	closeMeshes(m.seats)
	closeMeshes(m.coordSeats)
	<-m.client.Done()
}

func (m *meshBench) stamp() int64 { return int64(time.Since(m.epoch)) }

// newArg builds the argument of job key, with seed-drawn filler.
func (m *meshBench) newArg(key uint64, span int32) []byte {
	b := make([]byte, argLen)
	binary.LittleEndian.PutUint64(b[0:], key)
	binary.LittleEndian.PutUint32(b[20:], uint32(span))
	m.mu.Lock()
	m.rng.Read(b[24:])
	m.mu.Unlock()
	binary.LittleEndian.PutUint64(b[8:], uint64(m.stamp()))
	return b
}

func decodeArg(b []byte) jobArg {
	return jobArg{key: binary.LittleEndian.Uint64(b[0:]), stamp: int64(binary.LittleEndian.Uint64(b[8:])),
		span: int32(binary.LittleEndian.Uint32(b[20:]))}
}

// echo is the executor callback: it counts the execution and returns the
// argument. Traced, it records its own span under the caller's span, and
// the queue wait from the submit stamp carried in the argument as a root
// span of the same request.
func (m *meshBench) echo(name string, arg []byte) ([]byte, error) {
	start := time.Now()
	if name != echoTask || len(arg) != argLen {
		return nil, fmt.Errorf("echo: unexpected job %q with %d-byte arg", name, len(arg))
	}
	a := decodeArg(arg)
	out := append([]byte(nil), arg...)
	m.mu.Lock()
	m.execs[a.key]++
	m.mu.Unlock()
	if tr := m.tr.Load(); tr != nil {
		tr.record("service.queue_wait", 0, int64(a.key), m.epoch.Add(time.Duration(a.stamp)), start)
		tr.record("service.exec", a.span, int64(a.key), start, time.Now())
	}
	return out, nil
}

// checkExecs checks that every completed job ran exactly once and that
// nothing else ran, then forgets the phase.
func (m *meshBench) checkExecs(r *run, completed map[uint64]bool) {
	m.mu.Lock()
	execs := m.execs
	m.execs = map[uint64]int{}
	m.mu.Unlock()
	var dup, stray int64
	for k, n := range execs {
		if !completed[k] {
			stray++
		} else if n != 1 {
			dup++
		}
	}
	for k := range completed {
		if execs[k] == 0 {
			stray++
		}
	}
	if dup+stray > 0 {
		r.fail(dup+stray, "exactly-once: %d jobs executed more than once, %d executions unmatched to completions", dup, stray)
	}
}

// checkReply checks one reply against its job.
func checkReply(r *run, rep service.Reply, err error, arg []byte) bool {
	switch {
	case err != nil:
		return r.check(false, "job: %v", err)
	case rep.Code != service.OK:
		return r.check(false, "job nacked: %v", rep.Code)
	default:
		return r.check(bytes.Equal(rep.Result, arg), "job %d: echo differs from its argument", decodeArg(arg).key)
	}
}

// closedLoop runs nproc callers, each submitting its next job only after
// the previous reply, for d (or for n jobs in total when n > 0). It
// returns the completions per second and every completed call's latency
// in ms.
func (m *meshBench) closedLoop(r *run, d time.Duration, n int64) (float64, samples, error) {
	callers := runtime.NumCPU()
	var issued atomic.Int64
	completed := make([]map[uint64]bool, callers)
	lat := make([]samples, callers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	tr := m.tr.Load()
	// One deadline bounds every call, instead of a timer per call: a call
	// still unanswered replyTimeout after the phase's end fails. A counted
	// phase's end allows 10 ms per job.
	end := deadline
	if n > 0 {
		end = start.Add(time.Duration(n) * 10 * time.Millisecond)
	}
	ctx, cancel := context.WithDeadline(context.Background(), end.Add(replyTimeout))
	defer cancel()
	for c := 0; c < callers; c++ {
		completed[c] = map[uint64]bool{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := uint32(1 + c%2)
			for {
				if n > 0 && issued.Add(1) > n || n <= 0 && !time.Now().Before(deadline) {
					return
				}
				key := m.nextKey.Add(1)
				id := tr.begin("service.call", 0, int64(key))
				arg := m.newArg(key, id)
				t0 := time.Now()
				rep, err := m.client.Call(ctx, service.Job{Tenant: tenant, Name: echoTask, Arg: arg})
				dt := time.Since(t0)
				tr.end(id)
				if checkReply(r, rep, err, arg) {
					completed[c][key] = true
					lat[c].addDur(dt, time.Millisecond)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := map[uint64]bool{}
	for _, c := range completed {
		for k := range c {
			all[k] = true
		}
	}
	m.checkExecs(r, all)
	var lats samples
	for _, l := range lat {
		lats = append(lats, l...)
	}
	return float64(len(all)) / elapsed.Seconds(), lats, nil
}

// openResult is one open-loop phase.
type openResult struct {
	latency samples // ms from each job's due time to its reply
	late    samples // ms the generator sent each job after its due time
	// windowP50 and windowP99 hold the latency quantiles of each second
	// of due times.
	windowP50, windowP99 samples
	// firstQ and lastQ are the median latencies of the first and last
	// quarter of the jobs, to tell a growing backlog from noise.
	firstQ, lastQ float64
}

// openLoop submits jobs at a fixed rate for d, on schedule whether or not
// earlier jobs have completed, and times each job from its due time.
// Timeouts, nacks and transport errors count as failures.
func (m *meshBench) openLoop(r *run, rate int, d time.Duration) openResult {
	sch := newSchedule(time.Now().Add(time.Millisecond), rate)
	n := int(sch.rate() * d.Seconds())
	latency := make([]float64, n)
	late := make([]float64, n)
	ok := make([]bool, n)
	keys := make([]uint64, n)
	ctx, cancel := context.WithTimeout(context.Background(), d+replyTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := sch.due(i)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		keys[i] = m.nextKey.Add(1)
		arg := m.newArg(keys[i], 0)
		sent := time.Now()
		ch, err := m.client.Submit(service.Job{Tenant: 2 - uint32(i%4/3), Name: echoTask, Arg: arg})
		if err != nil {
			r.check(false, "open loop submit: %v", err)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case rep := <-ch:
				lt, lat := lateness(due, sent, time.Now())
				late[i], latency[i] = float64(lt)/1e6, float64(lat)/1e6
				ok[i] = checkReply(r, rep, nil, arg)
			case <-ctx.Done():
				r.check(false, "open loop job %d: no reply within %v", i, replyTimeout)
			}
		}(i)
	}
	wg.Wait()
	var res openResult
	completed := map[uint64]bool{}
	var first, last samples
	for i := 0; i < n; i++ {
		if !ok[i] {
			continue
		}
		completed[keys[i]] = true
		res.latency.add(latency[i])
		res.late.add(late[i])
		if i < n/4 {
			first.add(latency[i])
		} else if i >= n-n/4 {
			last.add(latency[i])
		}
	}
	m.checkExecs(r, completed)
	res.firstQ, res.lastQ = first.median(), last.median()
	// One-second windows; a trailing partial window counts when it holds
	// at least half a window, or when it is the only one.
	perWindow := int(sch.rate())
	for lo := 0; lo < n; lo += perWindow {
		hi := min(lo+perWindow, n)
		if hi-lo < perWindow/2 && lo > 0 {
			break
		}
		var w samples
		for i := lo; i < hi; i++ {
			if ok[i] {
				w.add(latency[i])
			}
		}
		c := w.sorted()
		res.windowP50.add(quantile(c, 0.5))
		res.windowP99.add(quantile(c, 0.99))
	}
	return res
}

// coordinatorRuns repeats node.Coordinator runs of coordBatches small
// batches, each against a fresh executor, for d. It checks that OnResult
// fires exactly once per batch id with the batch's echo, and returns the
// batches per second of Run time and each Run's duration in ms.
func (m *meshBench) coordinatorRuns(r *run, d time.Duration, minRuns int) (float64, samples, error) {
	reg := task.NewRegistry()
	reg.Register(echoTask, func([]byte) error { return nil })
	var runMS samples
	var batches int
	var runTime time.Duration
	tr := m.tr.Load()
	for deadline := time.Now().Add(d); time.Now().Before(deadline) || len(runMS) < minRuns; {
		req := int64(len(runMS) + 1)
		root := tr.begin("node.run", 0, req)
		ex := &node.Executor{Node: m.coordSeats[1], Place: 1, Registry: reg,
			Run: func(name string, arg []byte) ([]byte, error) {
				start := time.Now()
				out := append([]byte(nil), arg...)
				tr.record("node.exec", root, req, start, time.Now())
				return out, nil
			}}
		exDone := make(chan error, 1)
		go func() {
			_, err := ex.Serve()
			exDone <- err
		}()
		in := make([]node.Batch, coordBatches)
		for i := range in {
			in[i] = node.Batch{ID: i, Arg: m.newArg(m.nextKey.Add(1), 0)}
		}
		seen := make([]int, coordBatches)
		var mismatched int64
		c := &node.Coordinator{Node: m.coordSeats[0], Places: 2, TaskName: echoTask,
			OnResult: func(id int, res []byte) {
				if id < 0 || id >= len(seen) {
					mismatched++
					return
				}
				seen[id]++
				if !bytes.Equal(res, in[id].Arg) {
					mismatched++
				}
			}}
		start := time.Now()
		err := c.Run(in)
		dt := time.Since(start)
		tr.end(root)
		if err != nil {
			return 0, nil, fmt.Errorf("coordinator run: %w", err)
		}
		select {
		case err := <-exDone:
			if err != nil {
				return 0, nil, fmt.Errorf("coordinator executor: %w", err)
			}
		case <-time.After(replyTimeout):
			return 0, nil, errors.New("coordinator executor did not shut down")
		}
		for id, n := range seen {
			r.check(n == 1, "coordinator batch %d: OnResult fired %d times", id, n)
		}
		r.fail(mismatched, "coordinator: %d results differ from their batch's echo", mismatched)
		runMS.addDur(dt, time.Millisecond)
		runTime += dt
		batches += coordBatches
	}
	return float64(batches) / runTime.Seconds(), runMS, nil
}

// ladder runs each fixed rate for d and returns the highest rate whose
// p99 meets sloLimit with no growing backlog (the last quarter's median
// latency within twice the first quarter's and every job answered).
func (m *meshBench) ladder(r *run, d time.Duration) (int, []map[string]any) {
	best := 0
	var rungs []map[string]any
	for _, rate := range ladderRates {
		f0 := r.failed
		res := m.openLoop(r, rate, d)
		p99 := quantile(res.latency.sorted(), 0.99)
		pass := r.failed == f0 && p99 <= float64(sloLimit)/1e6 && res.lastQ <= 2*res.firstQ
		rungs = append(rungs, map[string]any{"rate": rate, "p99_ms": p99, "p50_ms": res.latency.median(),
			"first_quarter_p50_ms": res.firstQ, "last_quarter_p50_ms": res.lastQ, "pass": pass})
		if !pass {
			break
		}
		best = rate
	}
	return best, rungs
}

// unit is a closed-loop burst of a fixed job count.
func (m *meshBench) unit(r *run, tr *tracer) (time.Duration, error) {
	m.tr.Store(tr)
	defer m.tr.Store(nil)
	start := time.Now()
	_, _, err := m.closedLoop(r, 0, 1000)
	return time.Since(start), err
}

// measure runs the phases in order: the open loop at openRate, the rate
// ladder, the closed loop, then coordinator runs. The open-loop phases
// come first so they do not inherit the closed loop's backlog of armed
// server timers (see README.md, Known gaps).
func (m *meshBench) measure(r *run, d time.Duration) error {
	open := m.openLoop(r, openRate, d*3/10)
	slo, rungs := m.ladder(r, d/10/time.Duration(len(ladderRates)))
	var rates, p50s, p99s samples
	for end := time.Now().Add(d * 2 / 5); time.Now().Before(end); {
		jobs, lat, err := m.closedLoop(r, closedWindow, 0)
		if err != nil {
			return err
		}
		c := lat.sorted()
		rates.add(jobs)
		p50s.add(quantile(c, 0.5))
		p99s.add(quantile(c, 0.99))
	}
	jobs := rates.median()
	batches, _, err := m.coordinatorRuns(r, d/5, 3)
	if err != nil {
		return err
	}
	s := m.jobs.Snapshot()
	r.check(s.JobsAdmitted == s.JobsCompleted, "server admitted %d jobs but completed %d", s.JobsAdmitted, s.JobsCompleted)

	// The gate carries the closed loop: the open-loop figures from due
	// time are dominated by how late a sleeping generator wakes on a
	// loaded host, which swings several-fold between runs (see README.md).
	r.set("wall_ms_p50", p50s.median(), "ms")
	r.set("wall_ms_tail", p99s.median(), "ms")
	r.note("wall_ms_tail", map[string]any{"percentile": 99, "windows": len(p99s), "window_s": closedWindow.Seconds()})
	r.set("items_per_s", jobs, "1/s")
	r.note("jobs_per_s", jobs)
	r.note("latency_ms_p50", open.latency.median())
	r.note("latency_ms_p99", quantile(open.latency.sorted(), 0.99))
	r.note("latency_ms_p50_window_median", open.windowP50.median())
	r.note("latency_ms_p99_window_median", open.windowP99.median())
	r.note("open_rate_per_s", openRate)
	r.note("gen_late_ms_p99", quantile(open.late.sorted(), 0.99))
	r.note("slo_jobs_per_s", slo)
	r.note("slo_limit_ms", float64(sloLimit)/1e6)
	r.note("ladder", rungs)
	r.note("batches_per_s", batches)
	return nil
}
