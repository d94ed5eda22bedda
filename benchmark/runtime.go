package main

import (
	"fmt"
	"runtime"
	"time"

	"distws/internal/apps"
	"distws/internal/apps/linalg"
	"distws/internal/apps/suite"
	"distws/internal/apps/uts"
	"distws/internal/core"
	"distws/internal/dag"
	"distws/internal/obs"
	"distws/internal/sched"
	"distws/internal/topology"
)

// Runtime workloads run on places x 1 worker with places = nproc, the
// paper's DistWS policy and the default deque kind, all load coming from
// this one process.

// fineTrees is how many distinct UTS trees runtime-fine cycles through;
// fineMinNodes..fineMaxNodes is the size band they are drawn from, so
// every seed gets trees of about the same work (~17.8k nodes, the size of
// the UTS instance the paper suite uses).
const (
	fineTrees    = 4
	fineMinNodes = 17_000
	fineMaxNodes = 18_700
)

func runtimeCluster() topology.Cluster {
	cl := topology.Laptop()
	cl.Places, cl.WorkersPerPlace = runtime.NumCPU(), 1
	return cl
}

func newRuntime(rec *obs.Recorder) (*core.Runtime, error) {
	return core.New(core.Config{Cluster: runtimeCluster(), Policy: sched.DistWS, Seed: 1, Recorder: rec})
}

// utsTrees draws n UTS instances of the suite's shape from seed, keeping
// only trees whose size lies in [fineMinNodes, fineMaxNodes].
func utsTrees(seed int64, n int) ([]*uts.App, []uint64) {
	var trees []*uts.App
	var sums []uint64
	for c := int64(0); len(trees) < n; c++ {
		u := suite.UTS(seed*1_000_003 + c)
		if k := u.Count(); k < fineMinNodes || k > fineMaxNodes {
			continue
		}
		trees = append(trees, u)
		sums = append(sums, u.ChecksumXOR())
	}
	return trees, sums
}

// fine is the runtime-fine workload: repeated UTS traversals on one
// reused runtime. The oracle is ChecksumXOR, the order-independent
// checksum Parallel produces (Sequential is an ordered FNV and does not
// match it; see README.md).
type fine struct {
	rt    *core.Runtime
	trees []*uts.App
	sums  []uint64
	next  int
}

func buildFine(seed int64) (bench, error) {
	rt, err := newRuntime(nil)
	if err != nil {
		return nil, err
	}
	f := &fine{rt: rt}
	f.trees, f.sums = utsTrees(seed, fineTrees)
	for range f.trees { // warm the pools and the heap
		if _, err := f.traverse(nil, nil); err != nil {
			rt.Shutdown()
			return nil, err
		}
	}
	return f, nil
}

func (f *fine) close() { f.rt.Shutdown() }

// traverse runs the next tree once and checks its checksum.
func (f *fine) traverse(r *run, tr *tracer) (time.Duration, error) {
	i := f.next % len(f.trees)
	f.next++
	id := tr.begin("apps.uts.parallel", 0, int64(f.next))
	start := time.Now()
	got, err := f.trees[i].Parallel(f.rt)
	d := time.Since(start)
	tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("uts traversal: %w", err)
	}
	if r != nil {
		r.check(got == f.sums[i], "uts tree %d: checksum %x, want %x", f.trees[i].Seed, got, f.sums[i])
	}
	return d, nil
}

func (f *fine) unit(r *run, tr *tracer) (time.Duration, error) { return f.traverse(r, tr) }

// measure times sweeps: one traversal of each of the seed's trees. A
// sweep, not a single traversal, is the timed unit so the median and the
// tail are taken over the same mix of trees in every run.
func (f *fine) measure(r *run, d time.Duration) error {
	var wall, rate samples
	m0 := f.rt.Metrics()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		before := f.rt.Metrics().TasksExecuted
		var sweep time.Duration
		for range f.trees {
			t, err := f.traverse(r, nil)
			if err != nil {
				return err
			}
			sweep += t
		}
		wall.addDur(sweep, time.Millisecond)
		rate.add(float64(f.rt.Metrics().TasksExecuted-before) / sweep.Seconds())
	}
	m1 := f.rt.Metrics()
	r.setTiming(wall)
	r.set("items_per_s", rate.median(), "1/s")
	traversals := float64(len(wall) * len(f.trees))
	r.note("sweeps", len(wall))
	r.note("tasks_per_traversal", float64(m1.TasksExecuted-m0.TasksExecuted)/traversals)
	r.note("remote_steals_per_traversal", float64(m1.RemoteSteals-m0.RemoteSteals)/traversals)
	return nil
}

// coarse is the runtime-coarse workload: rounds of the seven paper apps
// and the Cholesky and LU dataflow graphs on one reused runtime, each
// checked against its sequential reference (bit-exact for the graphs).
type coarse struct {
	rt      *core.Runtime
	apps    []apps.App
	sums    []uint64
	linalg  []linalg.App
	lsums   []uint64
	seqTime time.Duration
	rounds  int
}

func buildCoarse(seed int64) (bench, error) {
	rt, err := newRuntime(nil)
	if err != nil {
		return nil, err
	}
	c := &coarse{rt: rt, apps: suite.Paper(suite.Small, seed)}
	for _, a := range linalg.Suite(seed) {
		if a.Name() == "cholesky" || a.Name() == "lu" {
			c.linalg = append(c.linalg, a)
		}
	}
	start := time.Now()
	for _, a := range c.apps {
		c.sums = append(c.sums, a.Sequential())
	}
	c.seqTime = time.Since(start)
	for _, a := range c.linalg {
		c.lsums = append(c.lsums, a.Sequential())
	}
	if _, err := c.round(nil, nil, nil); err != nil { // warm-up
		rt.Shutdown()
		return nil, err
	}
	return c, nil
}

func (c *coarse) close() { c.rt.Shutdown() }

// coarseRound is the per-call breakdown of one round.
type coarseRound struct {
	appMS   map[string]float64
	dagStat map[string]dag.ExecStats
}

// round runs every app once and checks each result.
func (c *coarse) round(r *run, tr *tracer, out *coarseRound) (time.Duration, error) {
	c.rounds++
	req := int64(c.rounds)
	root := tr.begin("bench.coarse.round", 0, req)
	start := time.Now()
	for i, a := range c.apps {
		id := tr.begin("apps."+a.Name()+".parallel", root, req)
		t0 := time.Now()
		got, err := a.Parallel(c.rt)
		dt := time.Since(t0)
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", a.Name(), err)
		}
		if r != nil {
			r.check(got == c.sums[i], "%s: checksum %x, want sequential %x", a.Name(), got, c.sums[i])
		}
		if out != nil {
			out.appMS[a.Name()] = float64(dt) / 1e6
		}
	}
	for i, a := range c.linalg {
		id := tr.begin("dag."+a.Name()+".execute", root, req)
		t0 := time.Now()
		got, st, err := a.Parallel(c.rt, dag.PolicyDataAware)
		dt := time.Since(t0)
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", a.Name(), err)
		}
		if r != nil {
			r.check(got == c.lsums[i], "%s: checksum %x, want bit-exact sequential %x", a.Name(), got, c.lsums[i])
		}
		if out != nil {
			out.appMS[a.Name()] = float64(dt) / 1e6
			out.dagStat[a.Name()] = st
		}
	}
	d := time.Since(start)
	tr.end(root)
	return d, nil
}

func (c *coarse) unit(r *run, tr *tracer) (time.Duration, error) { return c.round(r, tr, nil) }

func (c *coarse) measure(r *run, d time.Duration) error {
	var wall, rate samples
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		before := c.rt.Metrics().TasksExecuted
		t, err := c.round(r, nil, nil)
		if err != nil {
			return err
		}
		wall.addDur(t, time.Millisecond)
		rate.add(float64(c.rt.Metrics().TasksExecuted-before) / t.Seconds())
	}
	r.setTiming(wall)
	r.set("items_per_s", rate.median(), "1/s")
	r.note("rounds", len(wall))
	r.note("sequential_ms_per_round", float64(c.seqTime)/1e6)
	return nil
}
