package main

import (
	"fmt"
	"strings"
	"time"

	"distws/internal/apps"
	"distws/internal/apps/suite"
	"distws/internal/expt"
	"distws/internal/sched"
	"distws/internal/sim"
	"distws/internal/topology"
	"distws/internal/trace"
)

// exhibit is one deterministic exhibit of the paper evaluation. fig4 is
// left out: it times host wall clock, so its rendering differs per run.
type exhibit struct {
	name   string
	render func(r *expt.Runner) (string, error)
}

// simRepeats is how many times a round simulates the paper apps, so
// events_per_s rests on about half a second of simulation per round.
const simRepeats = 8

var exhibits = []exhibit{
	{"fig3", func(r *expt.Runner) (string, error) { rows, err := r.Fig3(); return expt.RenderFig3(rows), err }},
	{"fig5", func(r *expt.Runner) (string, error) { rows, err := r.Fig5(nil); return expt.RenderFig5(rows), err }},
	{"table1", func(r *expt.Runner) (string, error) { rows, err := r.Table1(); return expt.RenderTable1(rows), err }},
	{"table2", func(r *expt.Runner) (string, error) { rows, err := r.Table2(); return expt.RenderTable2(rows), err }},
	{"table3", func(r *expt.Runner) (string, error) { rows, err := r.Table3(); return expt.RenderTable3(rows), err }},
	{"fig6", func(r *expt.Runner) (string, error) { rows, err := r.Fig6(); return expt.RenderFig6(rows), err }},
	{"fig7", func(r *expt.Runner) (string, error) { rows, err := r.Fig7(); return expt.RenderFig7(rows), err }},
	{"granularity", func(r *expt.Runner) (string, error) {
		rows, err := r.GranularityStudy()
		return expt.RenderGranularity(rows), err
	}},
	{"uts", func(r *expt.Runner) (string, error) { rows, err := r.UTSStudy(); return expt.RenderUTS(rows), err }},
	{"adaptive", func(r *expt.Runner) (string, error) {
		rows, err := r.AdaptiveStudy()
		return expt.RenderAdaptive(rows), err
	}},
	{"contention", func(r *expt.Runner) (string, error) {
		rows, err := r.ContentionStudy()
		return expt.RenderContention(rows), err
	}},
	{"dag", func(r *expt.Runner) (string, error) { rows, err := r.DAGStudy(); return expt.RenderDAG(rows), err }},
}

// simSuite is the sim-suite workload: sequential rounds of every
// deterministic exhibit, each on a fresh expt.Runner (so a round pays
// trace generation, as distws-experiments does), plus sim.Run of the
// seven paper apps' traces under DistWS on the 16x8 virtual cluster.
type simSuite struct {
	seed    int64
	cluster topology.Cluster
	apps    []apps.App
	graphs  []*trace.Graph
	// ref is the first round's rendering and refEvents its per-app event
	// counts; every later round must reproduce both exactly.
	ref       string
	refEvents []int64
	rounds    int
}

func buildSim(seed int64) (bench, error) {
	r := expt.New(suite.Small, seed)
	r.Workers = 1
	s := &simSuite{seed: seed, cluster: r.Cluster, apps: r.Apps}
	for _, a := range r.Apps {
		g, err := r.Trace(a, r.Cluster.Places)
		if err != nil {
			return nil, fmt.Errorf("%s trace: %w", a.Name(), err)
		}
		s.graphs = append(s.graphs, g)
	}
	return s, nil
}

func (s *simSuite) close() {}

// exhibitsRound renders every exhibit on a fresh sequential runner and
// returns the concatenated output and each exhibit's wall time.
func (s *simSuite) exhibitsRound(tr *tracer, parent int32, req int64) (string, []time.Duration, error) {
	r := expt.New(suite.Small, s.seed)
	r.Workers = 1
	var out strings.Builder
	times := make([]time.Duration, len(exhibits))
	for i, e := range exhibits {
		id := tr.begin("expt."+e.name, parent, req)
		start := time.Now()
		text, err := e.render(r)
		times[i] = time.Since(start)
		tr.end(id)
		if err != nil {
			return "", nil, fmt.Errorf("exhibit %s: %w", e.name, err)
		}
		out.WriteString(text)
		out.WriteByte('\n')
	}
	return out.String(), times, nil
}

// appRuns simulates every paper app's trace under DistWS and returns the
// wall time and per-app event counts.
func (s *simSuite) appRuns(tr *tracer, parent int32, req int64) (time.Duration, []int64, error) {
	events := make([]int64, len(s.graphs))
	var total time.Duration
	for i, g := range s.graphs {
		opts := sim.Options{Seed: s.seed}
		id := tr.begin("sim.run."+s.apps[i].Name(), parent, req)
		start := time.Now()
		res, err := sim.Run(g, s.cluster, sched.DistWS, opts)
		total += time.Since(start)
		tr.end(id)
		if err != nil {
			return 0, nil, fmt.Errorf("sim.Run %s: %w", s.apps[i].Name(), err)
		}
		events[i] = res.Events
	}
	return total, events, nil
}

// checkRender compares a round's rendering against the first round's.
func (s *simSuite) checkRender(r *run, text string) {
	if s.ref == "" {
		s.ref = text
	}
	r.check(text == s.ref, "round %d: exhibit rendering differs from the first round", s.rounds)
}

// checkEvents compares per-app event counts against the first run's.
func (s *simSuite) checkEvents(r *run, events []int64) {
	if s.refEvents == nil {
		s.refEvents = events
	}
	for i, e := range events {
		r.check(e == s.refEvents[i] && e > 0, "round %d: %s simulated %d events, first run %d",
			s.rounds, s.apps[i].Name(), e, s.refEvents[i])
	}
}

// unit is one simulation of every paper app.
func (s *simSuite) unit(r *run, tr *tracer) (time.Duration, error) {
	s.rounds++
	d, events, err := s.appRuns(tr, 0, int64(s.rounds))
	if err != nil {
		return 0, err
	}
	s.checkEvents(r, events)
	return d, nil
}

func (s *simSuite) measure(r *run, d time.Duration) error {
	// A first round, not timed, fills the heap and records the reference
	// rendering and event counts.
	if err := s.round(r, nil, nil); err != nil {
		return err
	}
	var suiteMS, rate samples
	var events int64
	for deadline := time.Now().Add(d); time.Now().Before(deadline) || len(suiteMS) < 2; {
		var st roundTimes
		before := events
		if err := s.round(r, &st, &events); err != nil {
			return err
		}
		suiteMS.addDur(st.exhibits, time.Millisecond)
		rate.add(float64(events-before) / st.sims.Seconds())
	}
	r.setTiming(suiteMS)
	r.set("items_per_s", rate.median(), "1/s")
	r.note("rounds", len(suiteMS))
	r.note("suite_s", suiteMS.median()/1000)
	r.note("events_per_round", events/int64(len(suiteMS)))
	return nil
}

// roundTimes is the wall time of a round's two halves.
type roundTimes struct{ exhibits, sims time.Duration }

// round renders the exhibits once and simulates the paper apps
// simRepeats times, checking everything against the first round. st and
// events, when non-nil, receive the round's times and its event count.
func (s *simSuite) round(r *run, st *roundTimes, events *int64) error {
	s.rounds++
	text, times, err := s.exhibitsRound(nil, 0, 0)
	if err != nil {
		return err
	}
	s.checkRender(r, text)
	var rt roundTimes
	for _, t := range times {
		rt.exhibits += t
	}
	for i := 0; i < simRepeats; i++ {
		w, ev, err := s.appRuns(nil, 0, 0)
		if err != nil {
			return err
		}
		rt.sims += w
		s.checkEvents(r, ev)
		for _, e := range ev {
			if events != nil {
				*events += e
			}
		}
	}
	if st != nil {
		*st = rt
	}
	return nil
}
