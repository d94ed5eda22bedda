package sim

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"distws/internal/fault"
	"distws/internal/sched"
)

// linearRemoteWake is the reference for remoteWakePlace: the scan of every
// worker of every place, cyclically from remoteRR, that the wake index
// replaced. It returns the chosen place's id, or -1.
func linearRemoteWake(e *engine, p *simPlace) int {
	for off := 0; off < len(e.places); off++ {
		q := e.places[(e.remoteRR+off)%len(e.places)]
		if q == p || q.dead || q.draining {
			continue
		}
		for _, w := range q.workers {
			if !w.busy && !w.wakePending {
				return q.id
			}
		}
	}
	return -1
}

// checkWakeIndex fails unless every place's wakeable count and bit match
// its workers' flags.
func checkWakeIndex(t *testing.T, e *engine) {
	t.Helper()
	for _, p := range e.places {
		n := 0
		for _, w := range p.workers {
			if !w.busy && !w.wakePending {
				n++
			}
		}
		bit := e.wakeBits[p.id>>6]>>(p.id&63)&1 == 1
		if p.wakeable != n || bit != (n > 0) {
			t.Fatalf("place %d: wakeable=%d bit=%v, workers say %d", p.id, p.wakeable, bit, n)
		}
	}
}

// TestRemoteWakePlaceMatchesLinearScan drives random worker states, dead
// and draining places through setState and compares the bitset search
// with the linear reference for every remoteRR start and every self
// place, at place counts on both sides of the 64-bit word boundaries.
func TestRemoteWakePlaceMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, places := range []int{1, 2, 63, 64, 65, 130} {
		e := &engine{cl: cluster(places, 2), opts: Options{}.withDefaults()}
		e.buildCluster()
		checkWakeIndex(t, e)
		// Densities from "almost every worker busy" to "almost all idle".
		for _, busyPct := range []int{100, 97, 80, 50, 10} {
			for _, w := range e.workers {
				busy := rng.Intn(100) < busyPct
				pending := !busy && rng.Intn(100) < busyPct
				e.setState(w, busy, pending)
			}
			for _, p := range e.places {
				p.dead = rng.Intn(8) == 0
				p.draining = !p.dead && rng.Intn(8) == 0
			}
			checkWakeIndex(t, e)
			for rr := 0; rr < places; rr++ {
				e.remoteRR = rr
				for _, self := range e.places {
					want := linearRemoteWake(e, self)
					got := -1
					if q := e.remoteWakePlace(self); q != nil {
						got = q.id
					}
					if got != want {
						t.Fatalf("places=%d busy=%d%% remoteRR=%d self=%d: got place %d, want %d",
							places, busyPct, rr, self.id, got, want)
					}
				}
			}
		}
	}
}

// TestWakeIndexTracksFaultedRuns checks the index against the workers'
// flags after every event of a run that crashes, flaps, drains and joins
// places on both sides of a bitset word boundary: every reset path must
// leave count and bitset consistent.
func TestWakeIndexTracksFaultedRuns(t *testing.T) {
	g := mixedGraph(t, 132, 3, 66)
	plan := &fault.Plan{
		Crashes: []fault.Crash{{Place: 3, AtVirtualNS: 700_000}, {Place: 65, AfterTasks: 4}},
		Drains:  []fault.Drain{{Place: 63, AtNS: 900_000}},
		Joins:   []fault.Join{{Place: 64, AtNS: 1_100_000}},
		Flaps:   []fault.Flap{{Place: 1, AtNS: 500_000, DownNS: 300_000, UpNS: 400_000, Cycles: 2}},
	}
	opts := Options{Seed: 3, Fault: plan}.withDefaults()
	e := newEngine(g, cluster(66, 2), sched.DistWS, opts, nil)
	checkWakeIndex(t, e)
	for e.events.len() > 0 && e.tasksDone < len(g.Tasks) {
		e.step()
		checkWakeIndex(t, e)
	}
	c := e.ctrs.Snapshot()
	if e.tasksDone != len(g.Tasks) || c.PlacesLost != 4 || c.MembershipDrains != 1 || c.MembershipJoins != 1 {
		t.Fatalf("done %d of %d; counters %+v", e.tasksDone, len(g.Tasks), c)
	}
}

// TestEventCompact guards the event heap's record: at most 48 bytes and no
// pointers, so sifts stay cheap and the garbage collector never scans the
// heap's backing array.
func TestEventCompact(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 48 {
		t.Fatalf("event is %d bytes, want at most 48", n)
	}
	typ := reflect.TypeOf(event{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int32, reflect.Int64, reflect.Uint8, reflect.Uint64:
		default:
			t.Fatalf("event.%s has kind %v; events must hold no pointers", f.Name, f.Type.Kind())
		}
	}
}

// TestRunRejectsOversizedCluster checks the int32 id limit: a cluster of
// 2^32 workers is refused with a *SizeError before anything is allocated.
func TestRunRejectsOversizedCluster(t *testing.T) {
	g := flatGraph(t, 1, 1000, 0, 1, true)
	cl := cluster(1<<16, 1<<16)
	_, err := Run(g, cl, sched.DistWS, Options{})
	var se *SizeError
	if !errors.As(err, &se) || se.What != "workers" || se.N != cl.Workers() {
		t.Fatalf("Run on 2^32 workers: err = %v, want a workers *SizeError", err)
	}
	over := int64(math.MaxInt32) + 1
	if err := checkFits(int(over), 1); !errors.As(err, &se) || se.What != "tasks" {
		t.Fatalf("checkFits(MaxInt32+1 tasks) = %v, want a tasks *SizeError", err)
	}
	if err := checkFits(math.MaxInt32, math.MaxInt32); err != nil {
		t.Fatalf("checkFits at the limit = %v, want nil", err)
	}
}
