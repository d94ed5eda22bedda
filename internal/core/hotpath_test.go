package core

import (
	"sync/atomic"
	"testing"
	"time"

	"distws/internal/deque"
	"distws/internal/obs"
	"distws/internal/sched"
)

// TestMetricsCountEveryTaskExactly checks that the per-worker spawn and
// execution counts Metrics folds in are exact as soon as Run returns, for
// every deque kind: worker spawns, At-body spawns and the external root
// activity all count once, and a reused runtime keeps accumulating.
func TestMetricsCountEveryTaskExactly(t *testing.T) {
	for _, k := range deque.Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			cfg := testConfig(sched.DistWS, 2, 2)
			cfg.Deque = k
			rt := mustNew(t, cfg)
			const fan, nested, atSpawns = 200, 10, 7
			// Root + fan flexible + fan sensitive, each flexible task
			// spawning nested children, plus the At-body spawns.
			const perRun = 1 + 2*fan + fan*nested + atSpawns
			var ran atomic.Int64
			body := func(*Ctx) { ran.Add(1) }
			for run := int64(1); run <= 2; run++ {
				err := rt.Run(func(ctx *Ctx) {
					ran.Add(1)
					ctx.Finish(func(c *Ctx) {
						for i := 0; i < fan; i++ {
							c.AsyncAny(i%2, func(cc *Ctx) {
								ran.Add(1)
								for j := 0; j < nested; j++ {
									cc.AsyncAny(cc.Place(), body)
								}
							})
							c.Async(i%2, body)
						}
						c.At(1, 0, func(ac *Ctx) {
							for i := 0; i < atSpawns; i++ {
								ac.Async(1, body)
							}
						})
					})
				})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				m := rt.Metrics()
				want := run * perRun
				if m.TasksSpawned != want || m.TasksExecuted != want || ran.Load() != want {
					t.Fatalf("after run %d: spawned %d, executed %d, bodies ran %d; want %d each",
						run, m.TasksSpawned, m.TasksExecuted, ran.Load(), want)
				}
			}
		})
	}
}

// TestBusyTimeNeverExceedsWallTime nests Finish scopes on one worker: the
// outer activities help run their children while they wait, so a
// per-task clock would count the children twice. Busy streaks count each
// instant of a worker's time at most once.
func TestBusyTimeNeverExceedsWallTime(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 1, 1))
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			for i := 0; i < 4; i++ {
				c.Async(0, func(cc *Ctx) {
					cc.Finish(func(inner *Ctx) {
						for j := 0; j < 4; j++ {
							inner.Async(0, func(*Ctx) { time.Sleep(500 * time.Microsecond) })
						}
					})
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	now := rt.nowNS()
	busy := rt.places[0].workers[0].busyNS(now)
	if busy > now {
		t.Fatalf("worker busy %v exceeds the %v wall time since New", time.Duration(busy), time.Duration(now))
	}
	if min := int64(16 * 500 * time.Microsecond); busy < min {
		t.Fatalf("worker busy %v, want at least the %v its activities slept", time.Duration(busy), time.Duration(min))
	}
}

// TestSpawnAllocatesOnlyTheActivity guards the hot path's allocation
// budget: at 1x1, a fan-out of empty AsyncAny bodies allocates at most 2
// objects per task, the activity plus a caller closure. The bodies here
// capture nothing, so the figure is the activity plus the run's fixed
// cost spread over the fan-out.
func TestSpawnAllocatesOnlyTheActivity(t *testing.T) {
	rt := mustNew(t, testConfig(sched.DistWS, 1, 1))
	const fan = 4096
	fanOut := func() {
		err := rt.Run(func(ctx *Ctx) {
			ctx.Finish(func(c *Ctx) {
				for i := 0; i < fan; i++ {
					c.AsyncAny(0, func(*Ctx) {})
				}
			})
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	fanOut() // size the deques once
	perTask := testing.AllocsPerRun(5, fanOut) / fan
	t.Logf("%.3f allocations per task", perTask)
	if perTask > 2 {
		t.Fatalf("%.3f allocations per task, want at most 2 (activity + caller closure)", perTask)
	}
}

// TestTaskDurationsRecordedWhenTracing checks that the clock-free plain
// path did not cost the recorder its per-task service times: with a
// Recorder set, every task-end event carries the activity's duration.
func TestTaskDurationsRecordedWhenTracing(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderOptions{})
	cfg := testConfig(sched.DistWS, 1, 1)
	cfg.Recorder = rec
	rt := mustNew(t, cfg)
	const sleep = time.Millisecond
	err := rt.Run(func(ctx *Ctx) {
		ctx.Finish(func(c *Ctx) {
			for i := 0; i < 3; i++ {
				c.Async(0, func(*Ctx) { time.Sleep(sleep) })
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The root's own task-end event follows its finish; Shutdown waits
	// for the worker to record it.
	rt.Shutdown()
	ends := 0
	for _, ev := range rec.Snapshot().Events {
		if ev.Kind != obs.KindTaskEnd {
			continue
		}
		ends++
		if ev.Dur < int64(sleep) {
			t.Fatalf("task-end duration %v, want at least the %v the activity slept", time.Duration(ev.Dur), sleep)
		}
	}
	if ends != 4 {
		t.Fatalf("%d task-end events, want 4 (root + 3)", ends)
	}
}
