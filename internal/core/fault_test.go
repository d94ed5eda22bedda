package core

import (
	"sync/atomic"
	"testing"
	"time"

	"distws/internal/fault"
	"distws/internal/sched"
	"distws/internal/topology"
)

// chaosSum runs n small activities spread over all places under cfg and
// checks that every one of them executed exactly once — the recovery
// invariant: a crash may move work, never lose or duplicate it.
func chaosSum(t *testing.T, cfg Config, n int) *Runtime {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var sum atomic.Int64
	var count atomic.Int64
	err = rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			for i := 0; i < n; i++ {
				i := i
				home := i % c.Places()
				spawn := c.AsyncAny
				if cfg.Policy == sched.X10WS {
					spawn = c.Async
				}
				spawn(home, func(*Ctx) {
					time.Sleep(20 * time.Microsecond)
					sum.Add(int64(i))
					count.Add(1)
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := int64(n) * int64(n-1) / 2
	if got := sum.Load(); got != want {
		t.Fatalf("sum = %d, want %d (count=%d of %d)", got, want, count.Load(), n)
	}
	if got := count.Load(); got != int64(n) {
		t.Fatalf("executed %d activities, want %d", got, n)
	}
	return rt
}

func chaosCluster() topology.Cluster {
	return topology.Cluster{Places: 4, WorkersPerPlace: 2}
}

// TestCrashedPlaceWorkIsReExecuted crashes place 1 while it provably
// still holds queued work: its activities are locality-sensitive, so no
// other place can take them, and each one waits on a gate that opens only
// after every activity has been spawned. Place 1 therefore completes its
// third activity — the crash trigger — with nearly all of its share still
// queued, whatever the host's speed.
func TestCrashedPlaceWorkIsReExecuted(t *testing.T) {
	const n = 400
	rt := mustNew(t, Config{
		Cluster: chaosCluster(),
		Policy:  sched.DistWS,
		Seed:    7,
		Fault: &fault.Plan{
			Crashes: []fault.Crash{{Place: 1, AfterTasks: 3}},
		},
	})
	gate := make(chan struct{})
	var sum, count atomic.Int64
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			for i := 0; i < n; i++ {
				i := i
				body := func(*Ctx) {
					sum.Add(int64(i))
					count.Add(1)
				}
				if home := i % c.Places(); home == 1 {
					c.Async(home, func(cc *Ctx) {
						<-gate
						body(cc)
					})
				} else {
					c.AsyncAny(home, body)
				}
			}
			close(gate)
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got, want := sum.Load(), int64(n)*int64(n-1)/2; got != want || count.Load() != n {
		t.Fatalf("sum = %d, want %d (executed %d of %d)", got, want, count.Load(), n)
	}
	s := rt.Metrics()
	if s.PlacesLost != 1 {
		t.Fatalf("PlacesLost = %d, want 1", s.PlacesLost)
	}
	if s.TasksReExecuted == 0 {
		t.Fatalf("a loaded place crashed; queued tasks should be re-executed")
	}
}

func TestCrashUnderX10WSStillCompletes(t *testing.T) {
	// X10WS never migrates tasks in steady state, but fail-stop recovery
	// must still re-home a crashed place's queues.
	rt := chaosSum(t, Config{
		Cluster: chaosCluster(),
		Policy:  sched.X10WS,
		Seed:    7,
		Fault: &fault.Plan{
			Crashes: []fault.Crash{{Place: 2, AfterTasks: 3}},
		},
	}, 400)
	defer rt.Shutdown()
	s := rt.Metrics()
	if s.PlacesLost != 1 || s.TasksReExecuted == 0 {
		t.Fatalf("recovery counters: placesLost=%d reExecuted=%d", s.PlacesLost, s.TasksReExecuted)
	}
}

func TestLossySteals(t *testing.T) {
	// All work homed at place 0: remote thieves must steal through a
	// lossy fabric, so timeouts, retries, and drops accumulate while the
	// result stays exact.
	rt, err := New(Config{
		Cluster:      chaosCluster(),
		Policy:       sched.DistWS,
		Seed:         7,
		StealTimeout: 20 * time.Microsecond,
		Fault:        &fault.Plan{Seed: 3, DropProb: 0.3},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()
	const n = 300
	var count atomic.Int64
	err = rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			for i := 0; i < n; i++ {
				c.AsyncAny(0, func(*Ctx) {
					time.Sleep(20 * time.Microsecond)
					count.Add(1)
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count.Load() != n {
		t.Fatalf("executed %d of %d under loss", count.Load(), n)
	}
	s := rt.Metrics()
	if s.DroppedMessages == 0 || s.StealTimeouts == 0 {
		t.Fatalf("30%% loss recorded no faults: %v", s)
	}
	if s.Retries == 0 {
		t.Fatalf("timeouts should be retried with backoff: %v", s)
	}
}

func TestCrashWithLifelines(t *testing.T) {
	rt := chaosSum(t, Config{
		Cluster: chaosCluster(),
		Policy:  sched.LifelineWS,
		Seed:    7,
		Fault: &fault.Plan{
			Crashes: []fault.Crash{{Place: 3, AfterTasks: 2}},
		},
	}, 300)
	defer rt.Shutdown()
	if s := rt.Metrics(); s.PlacesLost != 1 {
		t.Fatalf("PlacesLost = %d, want 1", s.PlacesLost)
	}
}

func TestSpawnToDeadPlaceIsRehomed(t *testing.T) {
	rt, err := New(Config{
		Cluster: chaosCluster(),
		Policy:  sched.DistWS,
		Seed:    7,
		Fault: &fault.Plan{
			Crashes: []fault.Crash{{Place: 1, AfterTasks: 1}},
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown()
	var ran atomic.Int64
	err = rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			// Feed place 1 its crash quota, then keep spawning at it: the
			// later spawns must be re-homed, not stranded.
			for i := 0; i < 50; i++ {
				c.Async(1, func(*Ctx) {
					time.Sleep(10 * time.Microsecond)
					ran.Add(1)
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran.Load() != 50 {
		t.Fatalf("executed %d of 50", ran.Load())
	}
	if s := rt.Metrics(); s.PlacesLost != 1 {
		t.Fatalf("PlacesLost = %d, want 1", s.PlacesLost)
	}
}

func TestInvalidFaultPlanRejected(t *testing.T) {
	_, err := New(Config{
		Cluster: chaosCluster(),
		Fault:   &fault.Plan{Crashes: []fault.Crash{{Place: 9, AfterTasks: 1}}},
	})
	if err == nil {
		t.Fatalf("crash of place 9 on 4 places should be rejected")
	}
	_, err = New(Config{
		Cluster: chaosCluster(),
		Fault:   &fault.Plan{DropProb: 2},
	})
	if err == nil {
		t.Fatalf("DropProb=2 should be rejected")
	}
}
