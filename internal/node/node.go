// Package node implements the distributed batch protocol that
// cmd/distws-node drives: a coordinator at place 0 dispatching registry
// tasks across the cluster with at-least-once delivery and exactly-once
// result accounting, and an executor loop at every other place. The
// protocol is transport-agnostic — it speaks through a comm.Node, so the
// same code runs over the star (tcp-hub) and peer-to-peer (tcp-mesh)
// topologies, and payloads stay opaque bytes end to end.
package node

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distws/internal/comm"
	"distws/internal/member"
	"distws/internal/metrics"
	"distws/internal/task"
)

// ErrNoSurvivors is the sentinel for a dispatch that found every executor
// down or draining while the coordinator has no RunLocal fallback. Match
// with errors.Is; the concrete error is a *NoSurvivorsError carrying the
// batch id.
var ErrNoSurvivors = errors.New("node: no surviving executor")

// NoSurvivorsError reports which batch could not be placed anywhere.
type NoSurvivorsError struct{ Batch int }

func (e *NoSurvivorsError) Error() string {
	return fmt.Sprintf("node: batch %d undeliverable: every executor is down or draining and no RunLocal fallback is set", e.Batch)
}

// Is makes errors.Is(err, ErrNoSurvivors) match.
func (e *NoSurvivorsError) Is(target error) bool { return target == ErrNoSurvivors }

// Batch is one unit of dispatchable work: an id the result accounting is
// keyed on (carried on the wire as Message.Seq) and an opaque argument for
// the registered task.
type Batch struct {
	ID  int
	Arg []byte
}

// Coordinator is the resilient-finish state of place 0: it tracks which
// batch is outstanding at which place, re-dispatches when a place dies or
// goes silent, and deduplicates results so at-least-once dispatch still
// accounts every batch exactly once.
type Coordinator struct {
	// Node is this process's transport attachment (place 0).
	Node comm.Node
	// Places is the cluster size.
	Places int
	// Counters receives protocol accounting (PlacesLost, TasksReExecuted,
	// Retries); nil disables it.
	Counters *metrics.Counters
	// TaskName is the registry name executors resolve arriving spawns to.
	TaskName string
	// RunLocal executes one batch on the coordinator itself — the local
	// share of the work, and the fallback when no executor survives.
	// Optional: when nil every batch is dispatched remotely and a dispatch
	// with no surviving executor fails with ErrNoSurvivors instead of
	// falling back.
	RunLocal func(arg []byte) ([]byte, error)
	// OnResult consumes each batch's result payload, exactly once per id.
	OnResult func(id int, result []byte)
	// RetryAfter is the silence window after which outstanding batches are
	// re-sent. Defaults to 5s.
	RetryAfter time.Duration
	// Window caps how many batches may be outstanding at one executor.
	// Batches beyond every survivor's window wait in a coordinator-side
	// backlog and are pumped out as results come back, so a slow (or
	// silently partitioned) place never hoards unbounded work. Defaults
	// to 8.
	Window int
	// Heartbeat, when > 0, arms the membership failure detector: executors
	// are expected to beat at roughly this cadence (Executor.Heartbeat),
	// the detector sweeps at it, and a place whose silence exceeds the
	// adaptive timeout (per-link inter-arrival EWMA × the suspect/down
	// multipliers, floored at Heartbeat) moves alive → suspect → down.
	// Zero disables the detector: places are only marked down by transport
	// errors, as before.
	Heartbeat time.Duration
	// Absent lists places that are not present at start and will announce
	// themselves with KindJoin later (runtime join). They receive no work
	// until they do.
	Absent []int
	// Logf reports recovery events; nil is silent.
	Logf func(format string, a ...any)

	alive       []bool
	draining    []bool
	outstanding map[int]map[int]Batch // place -> batch id -> batch
	backlog     []Batch               // dispatchable work waiting for a window slot
	got         map[int]bool          // batch ids whose result is accounted
	pending     int
	members     *member.Table
	start       time.Time
}

// window returns the per-executor outstanding cap.
func (c *Coordinator) window() int {
	if c.Window > 0 {
		return c.Window
	}
	return 8
}

// nowNS is the coordinator's clock for the membership table, measured
// from the start of Run.
func (c *Coordinator) nowNS() int64 { return time.Since(c.start).Nanoseconds() }

func (c *Coordinator) logf(format string, a ...any) {
	if c.Logf != nil {
		c.Logf(format, a...)
	}
}

// Run dispatches batches across the cluster and blocks until every result
// is accounted, surviving executor crashes and lost messages. Every
// Places'th batch runs locally (the coordinator is a worker too); the rest
// go round robin over places 1..Places-1. On return it broadcasts
// KindShutdown to the surviving executors.
func (c *Coordinator) Run(batches []Batch) error {
	if c.Node == nil || c.OnResult == nil {
		return fmt.Errorf("node: Coordinator needs Node and OnResult")
	}
	if c.Places < 2 {
		return fmt.Errorf("node: Coordinator over %d places, want >= 2", c.Places)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 5 * time.Second
	}
	c.start = time.Now()
	c.alive = make([]bool, c.Places)
	c.draining = make([]bool, c.Places)
	c.members = member.NewTable(c.Places, 0, member.Config{MinTimeoutNS: c.Heartbeat.Nanoseconds()})
	absent := make(map[int]bool, len(c.Absent))
	for _, p := range c.Absent {
		if p > 0 && p < c.Places {
			absent[p] = true
		}
	}
	// Absent places stay Unknown in the member table so their eventual
	// KindJoin is a first contact, not a stale rejoin.
	for p := 1; p < c.Places; p++ {
		if absent[p] {
			continue
		}
		c.alive[p] = true
		c.members.SeedAlive(p, 0)
	}
	c.outstanding = make(map[int]map[int]Batch)
	c.got = make(map[int]bool)
	c.pending = len(batches)

	var tick <-chan time.Time
	if c.Heartbeat > 0 {
		t := time.NewTicker(c.Heartbeat)
		defer t.Stop()
		tick = t.C
	}

	for i, b := range batches {
		if i%c.Places == 0 && c.RunLocal != nil {
			if err := c.runHere(b); err != nil {
				return err
			}
			continue
		}
		if err := c.dispatch(b, i%c.Places); err != nil {
			return err
		}
	}

	// One timer, re-armed every iteration, fires after RetryAfter without
	// any event. A time.After per iteration would leave each armed timer
	// live until it expired, about rate × RetryAfter of them under load.
	retry := time.NewTimer(c.RetryAfter)
	defer retry.Stop()
	for c.pending > 0 {
		rearm(retry, c.RetryAfter)
		select {
		case m, ok := <-c.Node.Inbox():
			if !ok {
				return fmt.Errorf("node: inbox closed with %d batches outstanding", c.pending)
			}
			if err := c.handle(m); err != nil {
				return err
			}
		case <-tick:
			if err := c.detect(); err != nil {
				return err
			}
		case <-retry.C:
			c.logf("coordinator: no progress for %v, re-sending %d batch(es)", c.RetryAfter, c.pending)
			if err := c.retryOutstanding(); err != nil {
				return err
			}
			// Backpressure-shed batches wait in the backlog with nothing
			// outstanding to retry; the backoff expiring is their cue too.
			if err := c.pump(); err != nil {
				return err
			}
		}
	}
	for p := 1; p < c.Places; p++ {
		if c.alive[p] {
			c.Node.Send(comm.Message{Kind: comm.KindShutdown, To: p})
		}
	}
	return nil
}

// rearm stops t, drains a fire nobody received, and restarts it for d.
func rearm(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// handle processes one protocol message.
func (c *Coordinator) handle(m comm.Message) error {
	switch m.Kind {
	case comm.KindPlaceDown:
		return c.markDown(m.From)
	case comm.KindSpawnDone:
		id := int(m.Seq)
		if om := c.outstanding[m.From]; om != nil {
			delete(om, id)
		}
		c.finish(id, m.Payload)
		if err := c.maybeCompleteDrain(m.From); err != nil {
			return err
		}
		return c.pump() // a window slot freed
	case comm.KindSpawnNack:
		// A draining executor returned a queued-but-unstarted batch: move
		// it to a survivor. The work never ran, so this is an offload,
		// not a re-execution.
		id := int(m.Seq)
		if om := c.outstanding[m.From]; om != nil {
			if b, ok := om[id]; ok {
				delete(om, id)
				if c.Counters != nil {
					c.Counters.TasksOffloaded.Add(1)
				}
				if err := c.dispatch(b, m.From+1); err != nil {
					return err
				}
			}
		}
		return c.maybeCompleteDrain(m.From)
	case comm.KindHeartbeat:
		return c.onHeartbeat(m)
	case comm.KindJoin:
		return c.onJoin(m)
	case comm.KindDrain:
		return c.onDrain(m)
	}
	return nil
}

// detect runs one failure-detector sweep: silence beyond the adaptive
// suspect timeout is a heartbeat miss; beyond the down timeout the place
// is marked down and its work re-dispatched.
func (c *Coordinator) detect() error {
	for _, tr := range c.members.Tick(c.nowNS()) {
		switch tr.To {
		case member.Suspect:
			if c.Counters != nil {
				c.Counters.HeartbeatMisses.Add(1)
			}
			c.logf("coordinator: place %d suspected (silent too long)", tr.Place)
		case member.Down:
			c.logf("coordinator: place %d declared down by failure detector", tr.Place)
			if err := c.markDown(tr.Place); err != nil {
				return err
			}
		}
	}
	return nil
}

// onHeartbeat refreshes the member table and acks with the coordinator's
// view of the sender. A partitioned-then-healed executor learns from the
// Down in the ack that it must rejoin with a bumped incarnation; a beat
// that already carries the bumped incarnation is itself the rejoin.
func (c *Coordinator) onHeartbeat(m comm.Message) error {
	p, err := member.DecodePayload(m.Payload)
	if err != nil {
		return nil // malformed beat: ignore, the next one supersedes it
	}
	now := c.nowNS()
	if tr, ok := c.members.Heartbeat(m.From, p.Incarnation, now); ok && tr.To == member.Alive {
		switch tr.From {
		case member.Suspect:
			c.logf("coordinator: place %d refuted suspicion", m.From)
		case member.Down, member.Left, member.Unknown:
			// The beat rejoined the table (bumped incarnation after a
			// healed partition, or first contact): admit the place for
			// dispatch too, or it would stay sidelined forever.
			if err := c.admit(m.From, tr); err != nil {
				return err
			}
		}
	}
	ack := member.Payload{
		Incarnation: c.members.Incarnation(m.From),
		Epoch:       c.members.Epoch(),
		State:       c.members.State(m.From),
	}
	c.Node.Send(comm.Message{Kind: comm.KindHeartbeat, To: m.From,
		Payload: member.AppendPayload(nil, ack)})
	return nil
}

// onJoin admits a joining (or rejoining) place: it becomes eligible for
// dispatch again, and the transport's incarnation handshake has already
// re-established the link if it was evicted.
func (c *Coordinator) onJoin(m comm.Message) error {
	p, err := member.DecodePayload(m.Payload)
	if err != nil {
		return nil
	}
	tr, ok := c.members.Join(m.From, p.Incarnation, c.nowNS())
	if !ok {
		c.logf("coordinator: stale join from place %d (incarnation %d)", m.From, p.Incarnation)
		return nil
	}
	return c.admit(m.From, tr)
}

// admit makes a joined (or rejoined) place eligible for dispatch and
// pumps backlogged work into its fresh window.
func (c *Coordinator) admit(p int, tr member.Transition) error {
	rejoin := tr.From == member.Down || tr.From == member.Left
	c.alive[p] = true
	c.draining[p] = false
	if c.Counters != nil {
		if rejoin {
			c.Counters.MembershipRejoins.Add(1)
		} else {
			c.Counters.MembershipJoins.Add(1)
		}
	}
	c.logf("coordinator: place %d joined (incarnation %d, rejoin=%v)", p, tr.Incarnation, rejoin)
	return c.pump()
}

// onDrain starts a graceful departure: no new work is dispatched to the
// place; results and nacks for what is already outstanding flow back, and
// once nothing is left the coordinator releases the place with
// KindShutdown. Nothing is re-executed and the place is not counted lost.
func (c *Coordinator) onDrain(m comm.Message) error {
	if m.From <= 0 || m.From >= c.Places || c.draining[m.From] || !c.alive[m.From] {
		return nil
	}
	c.draining[m.From] = true
	c.members.Drain(m.From, c.nowNS())
	if c.Counters != nil {
		c.Counters.MembershipDrains.Add(1)
	}
	c.logf("coordinator: place %d draining (%d batch(es) outstanding there)",
		m.From, len(c.outstanding[m.From]))
	return c.maybeCompleteDrain(m.From)
}

// maybeCompleteDrain finishes a drain once nothing is outstanding at the
// draining place: the executor is released and recorded as departed.
func (c *Coordinator) maybeCompleteDrain(p int) error {
	if p <= 0 || p >= c.Places || !c.draining[p] || !c.alive[p] {
		return nil
	}
	if len(c.outstanding[p]) > 0 {
		return nil
	}
	c.alive[p] = false
	delete(c.outstanding, p)
	c.members.Left(p, c.nowNS())
	c.logf("coordinator: place %d drain complete, released", p)
	c.Node.Send(comm.Message{Kind: comm.KindShutdown, To: p})
	return nil
}

// slot returns the first alive, non-draining place at or after preferred
// (skipping the coordinator and any place in skip) with window capacity
// left, or -1.
func (c *Coordinator) slot(preferred int, skip map[int]bool) int {
	for try := 0; try < c.Places; try++ {
		dest := (preferred + try) % c.Places
		if dest == 0 || !c.alive[dest] || c.draining[dest] || skip[dest] {
			continue
		}
		if len(c.outstanding[dest]) >= c.window() {
			continue
		}
		return dest
	}
	return -1
}

// survivors reports whether any executor is still eligible for work.
func (c *Coordinator) survivors() bool {
	for p := 1; p < c.Places; p++ {
		if c.alive[p] && !c.draining[p] {
			return true
		}
	}
	return false
}

// dispatch sends b to the first eligible place with window capacity at
// or after preferred. With every survivor saturated the batch waits in
// the backlog; with no survivor at all it runs locally, or fails with a
// *NoSurvivorsError if RunLocal is unset.
func (c *Coordinator) dispatch(b Batch, preferred int) error {
	env := &task.Envelope{Name: c.TaskName, Arg: b.Arg, Origin: 0, Class: task.Flexible}
	var shed map[int]bool
	for {
		dest := c.slot(preferred, shed)
		if dest < 0 {
			break
		}
		env.Home = dest
		payload, err := env.Encode()
		if err != nil {
			return err
		}
		err = c.Node.Send(comm.Message{Kind: comm.KindSpawn, To: dest, Seq: uint64(b.ID), Payload: payload})
		if errors.Is(err, comm.ErrPlaceDown) {
			if err := c.markDown(dest); err != nil {
				return err
			}
			continue
		}
		if errors.Is(err, comm.ErrBackpressure) {
			// A typed shed — the destination's queue is full, not broken.
			// Retrying the same place immediately is a retry storm; instead
			// skip it for this dispatch and, if everyone sheds, park the
			// batch in the backlog for the RetryAfter backoff to re-pump.
			if c.Counters != nil {
				c.Counters.Backpressure.Add(1)
			}
			c.logf("coordinator: place %d shed batch %d (backpressure), backing off", dest, b.ID)
			if shed == nil {
				shed = make(map[int]bool)
			}
			shed[dest] = true
			continue
		}
		if err != nil {
			return err
		}
		if c.outstanding[dest] == nil {
			c.outstanding[dest] = make(map[int]Batch)
		}
		c.outstanding[dest][b.ID] = b
		return nil
	}
	if c.survivors() {
		c.backlog = append(c.backlog, b)
		return nil
	}
	if c.RunLocal == nil {
		return &NoSurvivorsError{Batch: b.ID}
	}
	return c.runHere(b)
}

// pump drains the backlog into freed window slots. Called whenever
// capacity may have appeared: a result or nack came back, a place
// joined, a place went down (its work re-homed elsewhere), or the
// RetryAfter backoff expired after a backpressure shed.
func (c *Coordinator) pump() error {
	for len(c.backlog) > 0 {
		b := c.backlog[0]
		if c.got[b.ID] {
			c.backlog = c.backlog[1:] // a re-dispatched twin already finished
			continue
		}
		if c.slot(b.ID, nil) < 0 {
			if c.survivors() {
				return nil // every survivor saturated; wait for results
			}
			if c.RunLocal == nil {
				return &NoSurvivorsError{Batch: b.ID}
			}
			c.backlog = c.backlog[1:]
			if err := c.runHere(b); err != nil {
				return err
			}
			continue
		}
		before := len(c.backlog)
		c.backlog = c.backlog[1:]
		if err := c.dispatch(b, b.ID); err != nil {
			return err
		}
		if len(c.backlog) >= before {
			// dispatch re-parked the batch (every survivor shed it with
			// backpressure): stop pumping instead of spinning on a queue
			// that cannot move until the backoff or an inbound event.
			return nil
		}
	}
	return nil
}

// runHere executes b on the coordinator and accounts its result.
func (c *Coordinator) runHere(b Batch) error {
	res, err := c.RunLocal(b.Arg)
	if err != nil {
		return err
	}
	c.finish(b.ID, res)
	return nil
}

// markDown records a place's failure and re-dispatches every batch that
// was outstanding there.
func (c *Coordinator) markDown(p int) error {
	if p <= 0 || p >= c.Places || !c.alive[p] {
		return nil
	}
	c.alive[p] = false
	c.draining[p] = false
	c.members.MarkDown(p, c.nowNS())
	if c.Counters != nil {
		c.Counters.PlacesLost.Add(1)
	}
	orphans := c.outstanding[p]
	delete(c.outstanding, p)
	c.logf("coordinator: place %d down, re-dispatching %d batch(es)", p, len(orphans))
	spread := 0
	for _, b := range orphans {
		if c.Counters != nil {
			c.Counters.TasksReExecuted.Add(1)
		}
		// Rotate the preferred destination so a large orphan set spreads
		// over the survivors instead of piling onto one place.
		if err := c.dispatch(b, p+1+spread); err != nil {
			return err
		}
		spread++
	}
	return c.pump() // re-homed work may have freed or reordered slots
}

// retryOutstanding re-sends every outstanding batch after a silent period —
// the per-request timeout of the dispatch protocol.
func (c *Coordinator) retryOutstanding() error {
	type entry struct {
		place int
		b     Batch
	}
	var stale []entry
	for p, m := range c.outstanding {
		for _, b := range m {
			stale = append(stale, entry{p, b})
		}
	}
	for _, e := range stale {
		if c.got[e.b.ID] {
			continue // completed while we were resending
		}
		if c.Counters != nil {
			c.Counters.Retries.Add(1)
		}
		delete(c.outstanding[e.place], e.b.ID)
		if err := c.dispatch(e.b, e.place); err != nil {
			return err
		}
	}
	return nil
}

// finish accounts a batch result exactly once.
func (c *Coordinator) finish(id int, result []byte) {
	if c.got[id] {
		return
	}
	c.got[id] = true
	c.OnResult(id, result)
	c.pending--
}

// Executor is the serve loop of a non-coordinator place: it resolves
// arriving spawn envelopes against the task registry, runs them, and
// replies with the result under the same Seq.
type Executor struct {
	// Node is this process's transport attachment.
	Node comm.Node
	// Place is this executor's place id.
	Place int
	// Registry resolves envelope names; nil uses task.DefaultRegistry.
	Registry *task.Registry
	// Run executes one resolved task and returns the reply payload.
	Run func(name string, arg []byte) ([]byte, error)
	// Concurrency, when > 1, runs up to that many spawns at once in a
	// bounded worker pool — concurrent Finish scopes within one place, the
	// shape a long-lived service executor wants. Run must then be safe for
	// concurrent use. The default (<= 1) keeps the serial loop, where
	// CrashAfter fail-stops at an exact batch count; in the pool the
	// crash/drain knobs trigger on completion order, which is approximate
	// by nature.
	Concurrency int
	// CrashAfter > 0 makes the executor fail-stop (return without a
	// goodbye) after that many batches — the chaos knob.
	CrashAfter int
	// DrainAfter > 0 makes the executor start a graceful drain after that
	// many batches: it announces KindDrain, nacks queued spawns back to
	// the coordinator, and departs when released with KindShutdown.
	DrainAfter int
	// Heartbeat, when > 0, beats KindHeartbeat to the coordinator at this
	// cadence so its failure detector can tell silence from death. Pair
	// with Coordinator.Heartbeat.
	Heartbeat time.Duration
	// Incarnation is this executor's starting incarnation (default 1). A
	// restarted executor passes a strictly higher value than its previous
	// life so the cluster can tell a rejoin from a stale announcement.
	Incarnation uint32
	// Announce makes Serve send KindJoin before serving — required for
	// places the coordinator lists in Absent (runtime join) and for
	// rejoins after a restart.
	Announce bool
	// Logf reports lifecycle events; nil is silent.
	Logf func(format string, a ...any)

	inc      atomic.Uint32 // current incarnation (bumped on forced rejoin)
	draining atomic.Bool
}

// incarnation returns the current incarnation, initializing it from the
// configured start value on first use.
func (e *Executor) incarnation() uint32 {
	if v := e.inc.Load(); v != 0 {
		return v
	}
	start := e.Incarnation
	if start == 0 {
		start = 1
	}
	e.inc.CompareAndSwap(0, start)
	return e.inc.Load()
}

// membershipPayload encodes this executor's current membership claim.
func (e *Executor) membershipPayload() []byte {
	st := member.Alive
	if e.draining.Load() {
		st = member.Draining
	}
	return member.AppendPayload(nil, member.Payload{Incarnation: e.incarnation(), State: st})
}

// Drain starts a graceful departure from outside the serve loop: the
// executor announces the drain, finishes what it is running, returns
// queued batches, and exits once the coordinator releases it. Safe to
// call concurrently with Serve; idempotent.
func (e *Executor) Drain() {
	if e.draining.Swap(true) {
		return
	}
	if e.Logf != nil {
		e.Logf("node %d: drain requested", e.Place)
	}
	e.Node.Send(comm.Message{Kind: comm.KindDrain, To: 0, Payload: e.membershipPayload()})
}

// Serve processes messages until a KindShutdown arrives, the inbox
// closes, or the CrashAfter budget is spent. It returns the number of
// batches executed.
func (e *Executor) Serve() (int, error) {
	if e.Node == nil || e.Run == nil {
		return 0, fmt.Errorf("node: Executor needs Node and Run")
	}
	reg := e.Registry
	if reg == nil {
		reg = task.DefaultRegistry
	}
	if e.Announce {
		if err := e.Node.Send(comm.Message{Kind: comm.KindJoin, To: 0, Payload: e.membershipPayload()}); err != nil {
			return 0, fmt.Errorf("node %d: join announcement: %w", e.Place, err)
		}
	}
	if e.Heartbeat > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			t := time.NewTicker(e.Heartbeat)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					// Lossy by design: a shed beat is superseded by the next.
					e.Node.Send(comm.Message{Kind: comm.KindHeartbeat, To: 0, Payload: e.membershipPayload()})
				}
			}
		}()
	}
	if e.Concurrency > 1 {
		return e.serveConcurrent(reg)
	}
	done := 0
	for m := range e.Node.Inbox() {
		switch m.Kind {
		case comm.KindShutdown:
			if e.Logf != nil {
				e.Logf("node %d: done after %d batches", e.Place, done)
			}
			return done, nil
		case comm.KindHeartbeat:
			// The coordinator's ack carries its view of us. Seeing Down
			// means a partition healed under our feet: the coordinator
			// evicted us while we kept running. Bump the incarnation and
			// rejoin — exactly-once is safe because results are
			// deduplicated by batch id.
			p, err := member.DecodePayload(m.Payload)
			if err == nil && p.State == member.Down && !e.draining.Load() &&
				p.Incarnation >= e.incarnation() {
				// The ack's incarnation proves the verdict is about our
				// CURRENT life — a stale ack about an incarnation we
				// already bumped past (queued behind a work backlog)
				// must not trigger another rejoin.
				e.inc.Add(1)
				if e.Logf != nil {
					e.Logf("node %d: coordinator saw us down, rejoining with incarnation %d", e.Place, e.inc.Load())
				}
				e.Node.Send(comm.Message{Kind: comm.KindJoin, To: 0, Payload: e.membershipPayload()})
			}
		case comm.KindSpawn:
			if e.draining.Load() {
				// Return the batch unstarted; the coordinator re-homes it.
				if err := e.Node.Send(comm.Message{Kind: comm.KindSpawnNack, To: 0, Seq: m.Seq}); err != nil {
					return done, err
				}
				continue
			}
			env, err := task.DecodeEnvelope(m.Payload)
			if err != nil {
				return done, err
			}
			if _, ok := reg.Lookup(env.Name); !ok {
				return done, fmt.Errorf("node %d: unknown remote task %q", e.Place, env.Name)
			}
			reply, err := e.Run(env.Name, env.Arg)
			if err != nil {
				return done, err
			}
			if err := e.Node.Send(comm.Message{Kind: comm.KindSpawnDone, To: env.Origin, Seq: m.Seq, Payload: reply}); err != nil {
				return done, err
			}
			done++
			if e.CrashAfter > 0 && done >= e.CrashAfter {
				if e.Logf != nil {
					e.Logf("node %d: fail-stop after %d batches", e.Place, done)
				}
				return done, nil
			}
			if e.DrainAfter > 0 && done >= e.DrainAfter {
				e.Drain()
			}
		}
	}
	return done, nil
}

// errCrashStop signals a CrashAfter fail-stop out of the worker pool.
var errCrashStop = errors.New("node: crash budget spent")

// serveConcurrent is the Concurrency > 1 serve loop: envelopes are decoded
// and validated in order on the loop, then executed by up to Concurrency
// workers, each replying under its own Seq as it finishes. Replies may
// therefore overtake each other — the coordinator and the service front
// door both correlate by Seq, never by order.
func (e *Executor) serveConcurrent(reg *task.Registry) (int, error) {
	sem := make(chan struct{}, e.Concurrency)
	errCh := make(chan error, e.Concurrency)
	var wg sync.WaitGroup
	var done atomic.Int64
	finish := func(err error) (int, error) {
		wg.Wait()
		if errors.Is(err, errCrashStop) {
			err = nil // fail-stop: return without a goodbye, like the serial loop
		}
		return int(done.Load()), err
	}
	for {
		select {
		case err := <-errCh:
			return finish(err)
		case m, ok := <-e.Node.Inbox():
			if !ok {
				return finish(nil)
			}
			switch m.Kind {
			case comm.KindShutdown:
				n, err := finish(nil)
				if e.Logf != nil {
					e.Logf("node %d: done after %d batches", e.Place, n)
				}
				return n, err
			case comm.KindHeartbeat:
				p, err := member.DecodePayload(m.Payload)
				if err == nil && p.State == member.Down && !e.draining.Load() &&
					p.Incarnation >= e.incarnation() {
					e.inc.Add(1)
					if e.Logf != nil {
						e.Logf("node %d: coordinator saw us down, rejoining with incarnation %d", e.Place, e.inc.Load())
					}
					e.Node.Send(comm.Message{Kind: comm.KindJoin, To: 0, Payload: e.membershipPayload()})
				}
			case comm.KindSpawn:
				if e.draining.Load() {
					if err := e.Node.Send(comm.Message{Kind: comm.KindSpawnNack, To: 0, Seq: m.Seq}); err != nil {
						return finish(err)
					}
					continue
				}
				env, err := task.DecodeEnvelope(m.Payload)
				if err != nil {
					return finish(err)
				}
				if _, ok := reg.Lookup(env.Name); !ok {
					return finish(fmt.Errorf("node %d: unknown remote task %q", e.Place, env.Name))
				}
				sem <- struct{}{} // bound the pool; blocks when saturated
				wg.Add(1)
				go func(seq uint64, origin int, env *task.Envelope) {
					defer wg.Done()
					defer func() { <-sem }()
					fail := func(err error) {
						select {
						case errCh <- err:
						default: // an earlier error already stops the loop
						}
					}
					reply, err := e.Run(env.Name, env.Arg)
					if err != nil {
						fail(err)
						return
					}
					if err := e.Node.Send(comm.Message{Kind: comm.KindSpawnDone, To: origin, Seq: seq, Payload: reply}); err != nil {
						fail(err)
						return
					}
					n := int(done.Add(1))
					if e.CrashAfter > 0 && n >= e.CrashAfter {
						if e.Logf != nil {
							e.Logf("node %d: fail-stop after %d batches", e.Place, n)
						}
						fail(errCrashStop)
						return
					}
					if e.DrainAfter > 0 && n >= e.DrainAfter {
						e.Drain()
					}
				}(m.Seq, env.Origin, env)
			}
		}
	}
}
