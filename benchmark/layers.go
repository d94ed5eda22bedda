package main

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"distws/internal/apps/suite"
	"distws/internal/comm"
	"distws/internal/core"
	"distws/internal/dag"
	"distws/internal/deque"
	"distws/internal/obs"
	"distws/internal/sched"
	"distws/internal/sim"
)

// The traced run. Every traced run measures every layer with the same
// probes, whatever the workload, so each per-layer metric is present in
// every traced result; the named workload decides trace.overhead_pct.

const (
	dequeOps      = 200_000 // push+pop pairs or steals per deque block
	dequeBlocks   = 5
	codecOps      = 100_000 // AppendFrame+DecodeFrame pairs per block
	spawnBatch    = 64      // AsyncAny calls per timed spawn span
	spawnBatches  = 256
	finishRuns    = 2000
	probeTrees    = 24 // UTS traversals behind the core counters
	recorderPairs = 16 // paired UTS traversals, recorder on and off
	simPairs      = 40 // paired sim runs for the adapt and obs overheads
	hops          = 3000
	serviceJobs   = 4000
	coarseRounds  = 3
	// minOverheadPairs is the least number of traced/untraced unit pairs
	// behind trace.overhead_pct; more run while the time budget lasts.
	minOverheadPairs = 6
)

// tracedRun measures every layer and the named workload's tracing
// overhead, then writes the spans to .bench_build/trace.
func tracedRun(r *run, w *workload, d time.Duration) error {
	start := time.Now()
	tr := newTracer()
	probes := []struct {
		name string
		fn   func(*run, *tracer) error
	}{
		{"deque", probeDeque},
		{"core", probeCore},
		{"apps", probeApps},
		{"comm", probeComm},
		{"service", probeService},
		{"sim", probeSim},
	}
	for _, p := range probes {
		if err := p.fn(r, tr); err != nil {
			return fmt.Errorf("%s probe: %w", p.name, err)
		}
	}
	spans := tr.closed()
	r.note("layer_self_ms", layerSelf(spans, selfTimes(spans)))
	r.note("spans", len(spans))
	r.note("spans_dropped", tr.dropped)
	base := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d", r.workload, r.seed))
	if err := writeSpans(base+"-layers.jsonl", spans); err != nil {
		return err
	}

	b, err := w.build(r.seed)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer b.close()
	utr := newTracer()
	untraced := func() (time.Duration, error) { return b.unit(r, nil) }
	traced := func() (time.Duration, error) { return b.unit(r, utr) }
	// One pair, discarded, sizes the rest to the time left.
	est := time.Now()
	if _, err := pairedOverheadPct(1, untraced, traced); err != nil {
		return err
	}
	pairs := max(minOverheadPairs, int((d-time.Since(start))/max(time.Since(est), 1)))
	ov, err := pairedOverheadPct(pairs, untraced, traced)
	if err != nil {
		return err
	}
	r.set("trace.overhead_pct", ov.Median, "%")
	r.set("trace.overhead_iqr_pct", ov.IQR, "%")
	r.note("trace.overhead", ov)
	return writeSpans(base+"-workload.jsonl", utr.closed())
}

// timedBlocks runs fn blocks times, each inside a span, and returns each
// block's wall time per op in ns.
func timedBlocks(tr *tracer, name string, blocks, ops int, fn func()) samples {
	var per samples
	for i := 0; i < blocks; i++ {
		id := tr.begin(name, 0, int64(i))
		start := time.Now()
		fn()
		per.add(float64(time.Since(start)) / float64(ops))
		tr.end(id)
	}
	return per
}

func probeDeque(r *run, tr *tracer) error {
	q := deque.New[int](deque.KindMutex)
	pushPop := timedBlocks(tr, "deque.push_pop", dequeBlocks, dequeOps, func() {
		for i := 0; i < dequeOps; i++ {
			q.Push(i)
			if v, ok := q.Pop(); !ok || v != i {
				r.check(false, "deque: pop returned %d,%v after pushing %d", v, ok, i)
				return
			}
		}
	})
	r.ok(dequeBlocks)
	r.set("deque.push_pop_ns", pushPop.median(), "ns")

	thieves := max(runtime.NumCPU()-1, 1)
	var steal samples
	for b := 0; b < dequeBlocks; b++ {
		q := deque.New[int](deque.KindMutex)
		for i := 0; i < dequeOps; i++ {
			q.Push(i)
		}
		var wg sync.WaitGroup
		got := make([]int, thieves)
		id := tr.begin("deque.steal", 0, int64(b))
		start := time.Now()
		for t := 0; t < thieves; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				for {
					if _, ok := q.Steal(); !ok {
						return
					}
					got[t]++
				}
			}(t)
		}
		wg.Wait()
		el := time.Since(start)
		tr.end(id)
		total := 0
		for _, g := range got {
			total += g
		}
		r.check(total == dequeOps, "deque: thieves took %d of %d", total, dequeOps)
		steal.add(float64(el) * float64(thieves) / float64(total))
	}
	r.set("deque.steal_ns", steal.median(), "ns")
	return nil
}

func noop(*core.Ctx) {}

func probeCore(r *run, tr *tracer) error {
	rt, err := newRuntime(nil)
	if err != nil {
		return err
	}
	defer rt.Shutdown()

	// Spawn cost: AsyncAny calls of a shared empty body, timed in batches
	// inside a fan-out owned by the benchmark.
	var spawn samples
	err = rt.Run(func(c *core.Ctx) {
		c.Finish(func(c *core.Ctx) {
			for b := 0; b < spawnBatches; b++ {
				id := tr.begin("core.spawn", 0, int64(b))
				start := time.Now()
				for j := 0; j < spawnBatch; j++ {
					c.AsyncAny(0, noop)
				}
				spawn.add(float64(time.Since(start)) / spawnBatch)
				tr.end(id)
			}
		})
	})
	if err != nil {
		return err
	}
	r.set("core.spawn_ns", spawn.median(), "ns")

	// Spawn to start: small fan-outs whose tasks are stamped at spawn and
	// read the clock when their body starts.
	n := spawnBatch * spawnBatches
	delay := make([]float64, n)
	id := tr.begin("core.spawn_to_start", 0, 0)
	err = rt.Run(func(c *core.Ctx) {
		for b := 0; b < spawnBatches; b++ {
			c.Finish(func(c *core.Ctx) {
				for j := 0; j < spawnBatch; j++ {
					i, stamp := b*spawnBatch+j, time.Now()
					c.AsyncAny(0, func(*core.Ctx) { delay[i] = float64(time.Since(stamp)) / 1e3 })
				}
			})
		}
	})
	tr.end(id)
	if err != nil {
		return err
	}
	s2s := samples(delay)
	sorted := s2s.sorted()
	r.set("core.spawn_to_start_us_p50", quantile(sorted, 0.5), "us")
	r.set("core.spawn_to_start_us_p99", quantile(sorted, 0.99), "us")

	var fin samples
	for i := 0; i < finishRuns; i++ {
		id := tr.begin("core.finish", 0, int64(i))
		start := time.Now()
		if err := rt.Run(func(c *core.Ctx) { c.Finish(noop) }); err != nil {
			return err
		}
		fin.addDur(time.Since(start), time.Microsecond)
		tr.end(id)
	}
	r.set("core.finish_us", fin.median(), "us")
	r.ok(int64(2*n + finishRuns))
	return probeCoreCounters(r, tr)
}

// probeCoreCounters runs UTS traversals on a fresh runtime and reads the
// scheduler's counters and the allocator's, per task executed.
func probeCoreCounters(r *run, tr *tracer) error {
	rt, err := newRuntime(nil)
	if err != nil {
		return err
	}
	defer rt.Shutdown()
	trees, sums := utsTrees(r.seed, fineTrees)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	m0 := rt.Metrics()
	for i := 0; i < probeTrees; i++ {
		k := i % len(trees)
		id := tr.begin("apps.uts.parallel", 0, int64(i))
		got, err := trees[k].Parallel(rt)
		tr.end(id)
		if err != nil {
			return err
		}
		r.check(got == sums[k], "uts probe: checksum %x, want %x", got, sums[k])
	}
	m1 := rt.Metrics()
	runtime.ReadMemStats(&ms1)
	util := rt.Utilization()
	tasks := float64(m1.TasksExecuted - m0.TasksExecuted)
	d := func(a, b int64) float64 { return float64(b - a) }
	r.note("core.tasks_executed", tasks)
	r.set("core.allocs_per_task", float64(ms1.Mallocs-ms0.Mallocs)/tasks, "count")
	r.set("core.bytes_per_task", float64(ms1.TotalAlloc-ms0.TotalAlloc)/tasks, "B")
	r.set("core.local_steals_per_task", d(m0.LocalSteals, m1.LocalSteals)/tasks, "count")
	r.set("core.remote_steals_per_task", d(m0.RemoteSteals, m1.RemoteSteals)/tasks, "count")
	r.set("core.remote_probes_per_task", d(m0.RemoteProbes, m1.RemoteProbes)/tasks, "count")
	r.set("core.migrated_per_task", d(m0.TasksMigrated, m1.TasksMigrated)/tasks, "count")
	r.set("core.duplicate_takes", d(m0.DuplicateTakes, m1.DuplicateTakes), "count")
	ok := d(m0.LocalSteals, m1.LocalSteals) + d(m0.RemoteSteals, m1.RemoteSteals)
	r.set("core.steal_success_ratio", ok/(ok+d(m0.FailedSteals, m1.FailedSteals)), "ratio")
	var u float64
	for _, p := range util {
		u += p
	}
	r.set("core.utilization_pct", u/float64(len(util)), "%")

	// The recorder's cost on the goroutine runtime: the same traversals
	// on a runtime with an obs.Recorder attached and on one without.
	rec, err := newRuntime(obs.NewRecorder(obs.RecorderOptions{}))
	if err != nil {
		return err
	}
	defer rec.Shutdown()
	traverse := func(rt *core.Runtime, i *int) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			k := *i % len(trees)
			*i++
			start := time.Now()
			got, err := trees[k].Parallel(rt)
			d := time.Since(start)
			r.check(err == nil && got == sums[k], "uts recorder probe: checksum %x, want %x (%v)", got, sums[k], err)
			return d, err
		}
	}
	var ip, ir int
	ov, err := pairedOverheadPct(recorderPairs, traverse(rt, &ip), traverse(rec, &ir))
	if err != nil {
		return err
	}
	r.set("obs.runtime_recorder_overhead_pct", ov.Median, "%")
	r.set("obs.runtime_recorder_overhead_iqr_pct", ov.IQR, "%")
	return nil
}

func probeApps(r *run, tr *tracer) error {
	b, err := buildCoarse(r.seed)
	if err != nil {
		return err
	}
	c := b.(*coarse)
	defer c.close()
	per := map[string]*samples{}
	var hits, misses, fetched samples
	for i := 0; i < coarseRounds; i++ {
		out := coarseRound{appMS: map[string]float64{}, dagStat: map[string]dag.ExecStats{}}
		if _, err := c.round(r, tr, &out); err != nil {
			return err
		}
		for name, ms := range out.appMS {
			if per[name] == nil {
				per[name] = &samples{}
			}
			per[name].add(ms)
		}
		var h, m, f int64
		for _, st := range out.dagStat {
			h, m, f = h+st.ResidentHits, m+st.ResidentMisses, f+st.FetchedBytes
		}
		hits.add(float64(h))
		misses.add(float64(m))
		fetched.add(float64(f))
	}
	var parallel float64
	for _, a := range c.apps {
		ms := per[a.Name()].median()
		parallel += ms
		r.set("apps."+a.Name()+"_ms", ms, "ms")
	}
	seq := float64(c.seqTime) / 1e6
	r.set("apps.sequential_ms", seq, "ms")
	r.set("apps.speedup", seq/parallel, "ratio")
	r.set("dag.cholesky_ms", per["cholesky"].median(), "ms")
	r.set("dag.lu_ms", per["lu"].median(), "ms")
	h, m := hits.median(), misses.median()
	r.set("dag.resident_hit_pct", 100*h/(h+m), "%")
	r.set("dag.fetched_bytes", fetched.median(), "B")
	return nil
}

func probeComm(r *run, tr *tracer) error {
	msg := comm.Message{Kind: comm.KindSpawn, From: 0, To: 1, Seq: 7, Payload: make([]byte, 64)}
	var buf []byte
	codec := timedBlocks(tr, "comm.frame_codec", dequeBlocks, codecOps, func() {
		for i := 0; i < codecOps; i++ {
			buf = comm.AppendFrame(buf[:0], msg)
			m, n, err := comm.DecodeFrame(buf)
			if err != nil || n != len(buf) || m.Seq != msg.Seq || len(m.Payload) != len(msg.Payload) {
				r.check(false, "frame codec round trip: %v", err)
				return
			}
		}
	})
	r.ok(dequeBlocks)
	r.set("comm.frame_codec_ns", codec.median(), "ns")

	// One-way hops on a loopback pair: the sender stamps the payload, the
	// receiver reads the clock when the message leaves its inbox.
	seats, err := openMeshTCP(2, nil)
	if err != nil {
		return err
	}
	defer closeMeshes(seats)
	epoch := time.Now()
	var hop samples
	for i := 0; i < hops+100; i++ {
		p := make([]byte, 8)
		binary.LittleEndian.PutUint64(p, uint64(time.Since(epoch)))
		if err := seats[0].Send(comm.Message{Kind: comm.KindData, To: 1, Seq: uint64(i), Payload: p}); err != nil {
			return fmt.Errorf("hop send: %w", err)
		}
		select {
		case m := <-seats[1].Inbox():
			now := time.Now()
			sent := epoch.Add(time.Duration(binary.LittleEndian.Uint64(m.Payload)))
			r.check(m.Seq == uint64(i), "hop %d: received seq %d", i, m.Seq)
			if i >= 100 { // the first hops dial the link
				tr.record("comm.hop", 0, int64(i), sent, now)
				hop.addDur(now.Sub(sent), time.Microsecond)
			}
		case <-time.After(replyTimeout):
			return fmt.Errorf("hop %d lost", i)
		}
	}
	sorted := hop.sorted()
	r.set("comm.hop_us_p50", quantile(sorted, 0.5), "us")
	r.set("comm.hop_us_p99", quantile(sorted, 0.99), "us")
	return nil
}

func probeService(r *run, tr *tracer) error {
	b, err := buildMesh(r.seed)
	if err != nil {
		return err
	}
	m := b.(*meshBench)
	defer m.close()
	w0 := m.wire.Snapshot()
	var writes0, frames0 int64
	for _, s := range m.seats {
		w, f := s.CoalescingStats()
		writes0, frames0 = writes0+w, frames0+f
	}
	m.tr.Store(tr)
	if _, _, err := m.closedLoop(r, 0, serviceJobs); err != nil {
		return err
	}
	m.tr.Store(nil)
	w1 := m.wire.Snapshot()
	var writes1, frames1 int64
	for _, s := range m.seats {
		w, f := s.CoalescingStats()
		writes1, frames1 = writes1+w, frames1+f
	}
	r.set("comm.messages_per_job", float64(w1.Messages-w0.Messages)/serviceJobs, "count")
	r.set("comm.bytes_per_job", float64(w1.BytesTransferred-w0.BytesTransferred)/serviceJobs, "B")
	r.set("comm.frames_per_write", float64(frames1-frames0)/float64(writes1-writes0), "ratio")

	spans := tr.closed()
	self := selfTimes(spans)
	call := map[int64]span{}
	var callUS, waitUS, replyUS samples
	for _, s := range spans {
		switch s.Name {
		case "service.call":
			call[s.Req] = s
			callUS.add(float64(s.End-s.Start) / 1e3)
		case "service.queue_wait":
			waitUS.add(float64(s.End-s.Start) / 1e3)
		}
	}
	for _, s := range spans {
		if c, ok := call[s.Req]; ok && s.Name == "service.exec" {
			replyUS.add(float64(c.End-s.End) / 1e3)
		}
	}
	cs, ws := callUS.sorted(), waitUS.sorted()
	r.set("service.call_us_p50", quantile(cs, 0.5), "us")
	r.set("service.call_us_p99", quantile(cs, 0.99), "us")
	r.set("service.exec_us", selfByName(spans, self, "service.exec", time.Microsecond).median(), "us")
	r.set("service.queue_wait_us_p50", quantile(ws, 0.5), "us")
	r.set("service.queue_wait_us_p99", quantile(ws, 0.99), "us")
	r.set("service.overhead_us_p50", selfByName(spans, self, "service.call", time.Microsecond).median(), "us")
	r.set("service.reply_us", replyUS.median(), "us")

	open := m.openLoop(r, openRate, time.Second)
	r.set("gen.late_ms_p99", quantile(open.late.sorted(), 0.99), "ms")

	m.tr.Store(tr)
	_, runs, err := m.coordinatorRuns(r, time.Second, 3)
	m.tr.Store(nil)
	if err != nil {
		return err
	}
	r.set("node.run_ms", runs.median(), "ms")
	spans = tr.closed()
	r.set("node.exec_us", selfByName(spans, selfTimes(spans), "node.exec", time.Microsecond).median(), "us")
	return nil
}

func probeSim(r *run, tr *tracer) error {
	b, err := buildSim(r.seed)
	if err != nil {
		return err
	}
	s := b.(*simSuite)
	root := tr.begin("bench.sim.round", 0, 1)
	_, times, err := s.exhibitsRound(tr, root, 1)
	tr.end(root)
	if err != nil {
		return err
	}
	r.ok(int64(len(exhibits)))
	for i, e := range exhibits {
		r.set("expt."+e.name+"_ms", float64(times[i])/1e6, "ms")
	}

	var traceTime time.Duration
	for _, a := range suite.Paper(suite.Small, r.seed) {
		id := tr.begin("apps."+a.Name()+".trace", 0, 0)
		start := time.Now()
		_, err := a.Trace(s.cluster.Places)
		traceTime += time.Since(start)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s trace: %w", a.Name(), err)
		}
	}
	r.set("apps.trace_ms", float64(traceTime)/1e6, "ms")

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	wall, events, err := s.appRuns(tr, 0, 2)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	var total int64
	for _, e := range events {
		total += e
	}
	r.check(total > 0, "sim: paper apps simulated no events")
	r.set("sim.events", float64(total), "count")
	r.set("sim.ns_per_event", float64(wall)/float64(total), "ns")
	r.set("sim.allocs_per_event", float64(ms1.Mallocs-ms0.Mallocs)/float64(total), "count")

	// Adaptive controller and recorder costs on one graph: dmg, the
	// middle of the suite's sizes.
	g := s.graphs[0]
	for i, a := range s.apps {
		if a.Name() == "dmg" {
			g = s.graphs[i]
		}
	}
	rec := obs.NewRecorder(obs.RecorderOptions{}) // reused, as a long-lived tracer would be
	runSim := func(policy sched.Kind, recorder bool) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			opts := sim.Options{Seed: r.seed}
			if recorder {
				opts.Recorder = rec
			}
			start := time.Now()
			res, err := sim.Run(g, s.cluster, policy, opts)
			d := time.Since(start)
			if err == nil {
				r.check(res.Events > 0, "sim %v: no events", policy)
			}
			return d, err
		}
	}
	ad, err := pairedOverheadPct(simPairs, runSim(sched.DistWS, false), runSim(sched.Adaptive, false))
	if err != nil {
		return err
	}
	r.set("adapt.overhead_pct", ad.Median, "%")
	r.set("adapt.overhead_iqr_pct", ad.IQR, "%")
	ob, err := pairedOverheadPct(simPairs, runSim(sched.DistWS, false), runSim(sched.DistWS, true))
	if err != nil {
		return err
	}
	r.set("obs.sim_recorder_overhead_pct", ob.Median, "%")
	r.set("obs.sim_recorder_overhead_iqr_pct", ob.IQR, "%")
	return nil
}
