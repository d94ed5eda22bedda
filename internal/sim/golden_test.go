package sim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"distws/internal/dag"
	"distws/internal/deque"
	"distws/internal/fault"
	"distws/internal/sched"
	"distws/internal/trace"
)

// resultDigest renders everything a run reports that the scheduling
// decisions determine: makespan, event count, per-place busy time and
// every non-zero counter.
func resultDigest(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan=%d events=%d", r.MakespanNS, r.Events)
	if len(r.PlaceBusyNS) <= 8 {
		fmt.Fprintf(&b, " busy=%v", r.PlaceBusyNS)
	} else {
		// Wide clusters: the total and an order-sensitive FNV-1a hash keep
		// the digest one readable line.
		var sum int64
		h := fnv.New64a()
		for _, ns := range r.PlaceBusyNS {
			sum += ns
			fmt.Fprintf(h, "%d,", ns)
		}
		fmt.Fprintf(&b, " busy=sum:%d/fnv:%x", sum, h.Sum64())
	}
	v := reflect.ValueOf(r.Counters)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); !f.IsZero() {
			fmt.Fprintf(&b, " %s=%v", v.Type().Field(i).Name, f.Interface())
		}
	}
	return b.String()
}

// mixedGraph interleaves spawning subtrees with flat roots spread over
// places, half of them locality-sensitive, so a run exercises private
// and shared deques, local and remote wakes.
func mixedGraph(t *testing.T, roots, depth, places int) *trace.Graph {
	t.Helper()
	b := trace.NewBuilder("mixed")
	var grow func(parent, d int)
	grow = func(parent, d int) {
		for k := 0; k < 2 && d > 0; k++ {
			c := b.Child(parent, trace.Task{CostNS: 300_000 + int64(d)*50_000,
				HomeMode: trace.HomeInherit, Flexible: (parent+k)%3 != 0})
			grow(c, d-1)
		}
	}
	for i := 0; i < roots; i++ {
		r := b.Root(trace.Task{CostNS: 600_000, Home: i % places, Flexible: i%2 == 0})
		grow(r, depth)
	}
	g, err := b.Graph()
	if err != nil {
		t.Fatalf("building graph: %v", err)
	}
	return g
}

// TestFaultPlanGolden pins the complete outcome of fault-injected runs.
// The paper exhibits inject no faults, so this is the gate that keeps
// the crash, flap, join, drain and partition paths — and the idle-worker
// bookkeeping they reset — bit-identical across engine changes. A diff
// means a scheduling decision changed; update a digest only for a change
// meant to alter results.
func TestFaultPlanGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) (*Result, error)
		want string
	}{
		{"crash", func(t *testing.T) (*Result, error) {
			plan := &fault.Plan{Seed: 5, DropProb: 0.05, Crashes: []fault.Crash{
				{Place: 1, AtVirtualNS: 1_200_000}, {Place: 2, AfterTasks: 9}}}
			return Run(deepGraph(t, 10, 5, 700_000, true), cluster(4, 2), sched.DistWS,
				Options{Seed: 7, Fault: plan})
		},
			"makespan=9124803 events=152 busy=[16831803 2943878 7042407 17548356] TasksExecuted=60 TasksSpawned=60 LocalSteals=1 RemoteSteals=11 FailedSteals=7 RemoteProbes=25 Messages=50 TasksMigrated=11 StealTimeouts=3 Retries=3 DroppedMessages=3 PlacesLost=2 TasksReExecuted=11"},
		{"flap", func(t *testing.T) (*Result, error) {
			plan := &fault.Plan{Flaps: []fault.Flap{
				{Place: 2, AtNS: 1_000_000, DownNS: 800_000, UpNS: 900_000, Cycles: 3}}}
			return Run(mixedGraph(t, 24, 4, 4), cluster(4, 3), sched.DistWS,
				Options{Seed: 3, Fault: plan})
		},
			"makespan=25524126 events=1614 busy=[76247171 76179909 69925661 76133450] TasksExecuted=744 TasksSpawned=744 LocalSteals=118 RemoteSteals=112 FailedSteals=11 RemoteProbes=99 Messages=201 TasksMigrated=104 PlacesLost=3 TasksReExecuted=37 MembershipRejoins=3"},
		{"join+drain", func(t *testing.T) (*Result, error) {
			plan := &fault.Plan{
				Joins:  []fault.Join{{Place: 3, AtNS: 2_000_000}},
				Drains: []fault.Drain{{Place: 1, AtNS: 1_500_000}, {Place: 2, AtNS: 4_000_000}},
			}
			return Run(flatGraph(t, 240, 1_000_000, -1, 4, true), cluster(5, 2), sched.DistWS,
				Options{Seed: 7, Fault: plan})
		},
			"makespan=39107566 events=641 busy=[78180225 4002200 8005200 72307952 78057700] TasksExecuted=240 TasksSpawned=240 RemoteSteals=40 FailedSteals=5 RemoteProbes=37 Messages=74 TasksMigrated=34 MembershipJoins=1 MembershipDrains=2 TasksOffloaded=131"},
		{"partition", func(t *testing.T) (*Result, error) {
			plan := &fault.Plan{Seed: 11, DupProb: 0.1, Partitions: []fault.Partition{
				{GroupA: []int{0, 1}, AtNS: 500_000, HealNS: 3_000_000}}}
			return Run(flatGraph(t, 200, 500_000, 0, 1, true), cluster(4, 2), sched.DistWS,
				Options{Seed: 9, Fault: plan})
		},
			"makespan=14151524 events=488 busy=[28041200 28227685 24071558 23671179] TasksExecuted=200 TasksSpawned=200 RemoteSteals=162 FailedSteals=13 RemoteProbes=234 Messages=486 TasksMigrated=144 StealTimeouts=58 Retries=40 DroppedMessages=58 DuplicatedMessages=18"},
		{"adaptive-gray-spike", func(t *testing.T) (*Result, error) {
			plan := &fault.Plan{Seed: 4, SpikeProb: 0.2, SpikeNS: 50_000,
				Grays: []fault.Gray{{From: -1, To: -1, ExtraNS: 200_000, AtNS: 1_000_000, UntilNS: 5_000_000}}}
			return Run(mixedGraph(t, 16, 4, 1), cluster(4, 2), sched.Adaptive,
				Options{Seed: 9, Fault: plan})
		},
			"makespan=24531407 events=1006 busy=[48892200 48992510 48992510 48992510] TasksExecuted=496 TasksSpawned=496 RemoteSteals=12 FailedSteals=7 RemoteProbes=33 Messages=66 TasksMigrated=12"},
		{"lifeline-crash", func(t *testing.T) (*Result, error) {
			plan := &fault.Plan{Crashes: []fault.Crash{{Place: 1, AtVirtualNS: 1_000_000}}}
			return Run(deepGraph(t, 12, 4, 900_000, true), cluster(4, 2), sched.LifelineWS,
				Options{Seed: 7, Fault: plan})
		},
			"makespan=9030755 events=133 busy=[18012000 3662062 17195817 17204719] TasksExecuted=60 TasksSpawned=60 RemoteSteals=10 FailedSteals=5 RemoteProbes=29 Messages=64 TasksMigrated=10 PlacesLost=1 TasksReExecuted=2"},
		{"wide-churn", func(t *testing.T) (*Result, error) {
			// 70 places span two words of any per-place bitset; the plan
			// crashes, drains, flaps and joins places on both sides of the
			// word boundary.
			plan := &fault.Plan{
				Crashes: []fault.Crash{{Place: 3, AtVirtualNS: 700_000}, {Place: 65, AfterTasks: 4}},
				Drains:  []fault.Drain{{Place: 63, AtNS: 900_000}},
				Joins:   []fault.Join{{Place: 64, AtNS: 1_100_000}, {Place: 0, AtNS: 400_000}},
				Flaps:   []fault.Flap{{Place: 66, AtNS: 500_000, DownNS: 300_000, UpNS: 400_000, Cycles: 2}},
			}
			return Run(mixedGraph(t, 140, 3, 70), cluster(70, 2), sched.DistWS,
				Options{Seed: 13, Fault: plan})
		},
			"makespan=7124184 events=4544 busy=sum:850448042/fnv:6278f142efdf09a2 TasksExecuted=2100 TasksSpawned=2100 LocalSteals=43 RemoteSteals=326 FailedSteals=166 RemoteProbes=12798 Messages=25604 TasksMigrated=245 PlacesLost=4 TasksReExecuted=30 MembershipJoins=2 MembershipDrains=1 MembershipRejoins=2 TasksOffloaded=4"},
		{"relaxed-contention-crash", func(t *testing.T) (*Result, error) {
			plan := &fault.Plan{Crashes: []fault.Crash{{Place: 0, AtVirtualNS: 800_000}}}
			return Run(mixedGraph(t, 20, 4, 2), cluster(6, 4), sched.DistWS,
				Options{Seed: 21, Fault: plan, LockContention: true, Deque: deque.KindRelaxed})
		},
			"makespan=12600029 events=1304 busy=[4403650 48845906 48323201 48528031 48259088 48747426] TasksExecuted=620 TasksSpawned=620 LocalSteals=133 RemoteSteals=155 FailedSteals=24 RemoteProbes=158 Messages=320 TasksMigrated=104 PlacesLost=1 TasksReExecuted=10 Donations=34 StealRequests=158"},
		{"dag-crash", func(t *testing.T) (*Result, error) {
			plan := &fault.Plan{Crashes: []fault.Crash{{Place: 1, AtVirtualNS: 300_000}}}
			return RunDAG(pipelineGraph(12, 5, 4, 1<<14, 80_000), cluster(4, 2), sched.DistWS,
				dag.PolicyDataAware, Options{Seed: 1, Fault: plan})
		},
			"makespan=927096 events=150 busy=[1659643 736502 1692083 1671220] TasksExecuted=60 TasksSpawned=60 RemoteSteals=28 FailedSteals=9 RemoteProbes=48 Messages=121 BytesTransferred=360448 TasksMigrated=16 PlacesLost=1 TasksReExecuted=3 DAGTasksReleased=60 DAGResidentHits=40 DAGResidentMisses=22 DAGFetchedBytes=360448"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := c.run(t)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if got := resultDigest(r); got != c.want {
				t.Fatalf("outcome changed:\n got %s\nwant %s", got, c.want)
			}
		})
	}
}
