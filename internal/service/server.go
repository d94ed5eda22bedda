package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"distws/internal/comm"
	"distws/internal/member"
	"distws/internal/metrics"
	"distws/internal/obs"
	"distws/internal/task"
)

// Server is the service front door at place 0 of a compute cluster:
// a long-lived event loop that admits streamed job submissions from
// client seats, schedules them across executor places with weighted
// deficit round robin, and accounts every admitted job exactly once
// through executor joins, drains, and failures.
//
// Seat layout: places 0..Places-1 are the compute cluster (0 = this
// server, 1..Places-1 executors running node.Executor); every transport
// seat >= Places is a client, allowed only to submit jobs and receive
// replies. The same comm transports carry both roles, so a client is
// just another mesh peer or hub spoke.
type Server struct {
	// Node is the transport attachment at place 0.
	Node comm.Node
	// Places is the compute cluster size (server + executors). Transport
	// seats at or beyond Places are client seats.
	Places int
	// Tenants is the admission/fair-share contract per tenant id.
	Tenants map[uint32]TenantConfig
	// Registry resolves job task names; nil uses task.DefaultRegistry.
	Registry *task.Registry
	// Counters receives aggregate job/membership accounting; nil disables.
	Counters *metrics.Counters
	// Stats receives per-tenant accounting; nil disables.
	Stats *Stats
	// Recorder receives job admit/reject/done events; nil records nothing.
	Recorder *obs.Recorder
	// Window caps outstanding jobs per executor (default 8).
	Window int
	// Quantum scales the DRR credit per scheduler visit (default 1).
	Quantum int
	// RetryAfter is the silence window after which outstanding jobs are
	// re-dispatched (at-least-once; replies dedupe). Default 5s.
	RetryAfter time.Duration
	// Heartbeat, when > 0, arms the membership failure detector exactly
	// as in node.Coordinator: executors beat at this cadence and silence
	// beyond the adaptive timeout marks them down.
	Heartbeat time.Duration
	// Absent lists executor places that will announce with KindJoin later.
	Absent []int
	// Clock returns the server-relative time in ns; nil uses the wall
	// clock since Serve started. Deadlines are interpreted on this clock.
	Clock func() int64
	// Logf reports lifecycle events; nil is silent.
	Logf func(format string, a ...any)

	adm      *Admission
	fs       *FairShare
	alive    []bool
	draining []bool
	members  *member.Table
	// outstanding tracks dispatched jobs per executor by dispatch seq;
	// seqs indexes the same entries globally for completion lookup.
	outstanding map[int]map[uint64]*inflight
	seqs        map[uint64]*inflight
	nextSeq     uint64
	rr          int // round-robin dispatch preference
	start       time.Time
	drainCh     chan struct{}
	stopping    bool
}

// inflight is one admitted job from dispatch to completion.
type inflight struct {
	it    Item
	seq   uint64
	place int
}

// ErrServerClosed is returned by Serve after a graceful drain completes.
var ErrServerClosed = errors.New("service: server drained and closed")

func (s *Server) logf(format string, a ...any) {
	if s.Logf != nil {
		s.Logf(format, a...)
	}
}

// now returns the server-relative clock in ns.
func (s *Server) now() int64 {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Since(s.start).Nanoseconds()
}

func (s *Server) window() int {
	if s.Window > 0 {
		return s.Window
	}
	return 8
}

// Drain begins a graceful shutdown from any goroutine (the daemon's
// SIGTERM handler): new submissions are nacked with NackDraining, every
// already-admitted job still completes, then executors are released and
// Serve returns ErrServerClosed. Idempotent.
func (s *Server) Drain() {
	defer func() { recover() }() // concurrent Drain: second close is a no-op
	close(s.drainCh)
}

// Serve runs the front-door event loop until ctx is cancelled (hard stop:
// queued jobs are nacked back) or a Drain completes (every admitted job
// finished). It must be called once.
func (s *Server) Serve(ctx context.Context) error {
	if s.Node == nil {
		return fmt.Errorf("service: Server needs Node")
	}
	if s.Places < 2 {
		return fmt.Errorf("service: Server over %d compute places, want >= 2", s.Places)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("service: Server needs at least one tenant config")
	}
	if s.RetryAfter <= 0 {
		s.RetryAfter = 5 * time.Second
	}
	s.start = time.Now()
	s.adm = NewAdmission(s.Tenants)
	s.fs = NewFairShare(s.Quantum, s.adm.Weights())
	s.alive = make([]bool, s.Places)
	s.draining = make([]bool, s.Places)
	s.outstanding = make(map[int]map[uint64]*inflight)
	s.seqs = make(map[uint64]*inflight)
	s.drainCh = make(chan struct{})
	s.members = member.NewTable(s.Places, 0, member.Config{MinTimeoutNS: s.Heartbeat.Nanoseconds()})
	absent := make(map[int]bool, len(s.Absent))
	for _, p := range s.Absent {
		if p > 0 && p < s.Places {
			absent[p] = true
		}
	}
	for p := 1; p < s.Places; p++ {
		if absent[p] {
			continue
		}
		s.alive[p] = true
		s.members.SeedAlive(p, 0)
	}

	var tick <-chan time.Time
	if s.Heartbeat > 0 {
		t := time.NewTicker(s.Heartbeat)
		defer t.Stop()
		tick = t.C
	}

	// One timer, re-armed every iteration, fires after RetryAfter without
	// any event. A time.After per iteration would leave each armed timer
	// live until it expired, about rate × RetryAfter of them under load.
	retry := time.NewTimer(s.RetryAfter)
	defer retry.Stop()
	drainCh := s.drainCh
	for {
		if s.stopping && s.fs.Len() == 0 && len(s.seqs) == 0 {
			s.release()
			return ErrServerClosed
		}
		rearm(retry, s.RetryAfter)
		select {
		case <-ctx.Done():
			s.nackQueued(NackDraining)
			s.release()
			return ctx.Err()
		case <-drainCh:
			s.stopping = true
			drainCh = nil // fire once
			s.logf("server: draining (%d queued, %d dispatched)", s.fs.Len(), len(s.seqs))
		case m, ok := <-s.Node.Inbox():
			if !ok {
				return fmt.Errorf("service: inbox closed with %d jobs in flight", len(s.seqs))
			}
			if err := s.handle(m); err != nil {
				return err
			}
		case <-tick:
			if err := s.detect(); err != nil {
				return err
			}
		case <-retry.C:
			if len(s.seqs) == 0 {
				continue
			}
			s.logf("server: no progress for %v, re-dispatching %d job(s)", s.RetryAfter, len(s.seqs))
			if err := s.retryOutstanding(); err != nil {
				return err
			}
		}
	}
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

// release broadcasts shutdown to the surviving executors.
func (s *Server) release() {
	for p := 1; p < s.Places; p++ {
		if s.alive[p] {
			s.Node.Send(comm.Message{Kind: comm.KindShutdown, To: p})
		}
	}
}

// nackQueued bounces every queued job back to its client (hard stop).
func (s *Server) nackQueued(code NackCode) {
	for _, it := range s.fs.DrainAll() {
		s.adm.Complete(it.Job.Tenant)
		s.reject(it.Client, it.Job, code, 0)
	}
}

// handle processes one protocol message.
func (s *Server) handle(m comm.Message) error {
	switch m.Kind {
	case comm.KindSubmit:
		return s.onSubmit(m)
	case comm.KindSpawnDone:
		return s.onDone(m)
	case comm.KindSpawnNack:
		return s.onExecutorNack(m)
	case comm.KindPlaceDown:
		if m.From > 0 && m.From < s.Places {
			if err := s.markDown(m.From); err != nil {
				return err
			}
		}
		return nil
	case comm.KindHeartbeat:
		return s.onHeartbeat(m)
	case comm.KindJoin:
		return s.onJoin(m)
	case comm.KindDrain:
		return s.onDrain(m)
	}
	return nil
}

// record emits a job lifecycle event at the front door's track.
func (s *Server) record(kind obs.Kind, tenant uint32) {
	if s.Recorder.Enabled() {
		s.Recorder.Record(0, 0, kind, -1, int32(tenant), 0)
	}
}

// reject nacks a submission back to its client.
func (s *Server) reject(client int, j Job, code NackCode, retryNS int64) {
	if s.Counters != nil {
		s.Counters.JobsRejected.Add(1)
	}
	if s.Stats != nil {
		s.Stats.Tenant(j.Tenant).Rejected.Add(1)
	}
	s.record(obs.KindJobReject, j.Tenant)
	payload := AppendReply(nil, Reply{Tenant: j.Tenant, ID: j.ID, Code: code, RetryAfterNS: retryNS})
	s.Node.Send(comm.Message{Kind: comm.KindJobNack, To: client, Seq: j.ID, Payload: payload})
}

// onSubmit runs admission control on one streamed job and either queues
// it for dispatch or nacks it with a typed reason.
func (s *Server) onSubmit(m comm.Message) error {
	if m.From < s.Places {
		return nil // compute places do not submit; ignore
	}
	j, err := DecodeJob(m.Payload)
	if err != nil {
		s.logf("server: malformed submit from seat %d: %v", m.From, err)
		return nil // a bad frame poisons nothing; drop it
	}
	// The payload aliases the inbox buffer on TCP transports; copy what
	// outlives this message.
	j.Arg = append([]byte(nil), j.Arg...)
	now := s.now()
	if s.Counters != nil {
		s.Counters.JobsSubmitted.Add(1)
	}
	if s.Stats != nil {
		s.Stats.Tenant(j.Tenant).Submitted.Add(1)
	}
	if s.stopping {
		s.reject(m.From, j, NackDraining, 0)
		return nil
	}
	reg := s.Registry
	if reg == nil {
		reg = task.DefaultRegistry
	}
	if _, ok := reg.Lookup(j.Name); !ok {
		s.reject(m.From, j, NackUnknownTask, 0)
		return nil
	}
	if j.DeadlineNS > 0 && now >= j.DeadlineNS {
		s.reject(m.From, j, NackDeadline, 0)
		return nil
	}
	if err := s.adm.Admit(j.Tenant, now); err != nil {
		var ae *AdmissionError
		code, retry := NackOverload, int64(0)
		if errors.As(err, &ae) {
			code, retry = ae.Code, ae.RetryAfterNS
		}
		s.reject(m.From, j, code, retry)
		return nil
	}
	if s.Counters != nil {
		s.Counters.JobsAdmitted.Add(1)
	}
	if s.Stats != nil {
		s.Stats.Tenant(j.Tenant).Admitted.Add(1)
	}
	s.record(obs.KindJobAdmit, j.Tenant)
	s.fs.Push(j.Tenant, Item{Job: j, Client: m.From, AdmittedNS: now})
	return s.pump()
}

// onDone completes a dispatched job exactly once and acks its client.
func (s *Server) onDone(m comm.Message) error {
	e := s.seqs[m.Seq]
	if e == nil || e.place != m.From {
		return nil // stale twin from a re-dispatch or a healed partition
	}
	delete(s.seqs, e.seq)
	if om := s.outstanding[e.place]; om != nil {
		delete(om, e.seq)
	}
	now := s.now()
	s.adm.Complete(e.it.Job.Tenant)
	if s.Counters != nil {
		s.Counters.JobsCompleted.Add(1)
	}
	if s.Stats != nil {
		st := s.Stats.Tenant(e.it.Job.Tenant)
		st.Completed.Add(1)
		st.Latency.Record(now - e.it.AdmittedNS)
	}
	s.record(obs.KindJobDone, e.it.Job.Tenant)
	payload := AppendReply(nil, Reply{Tenant: e.it.Job.Tenant, ID: e.it.Job.ID, Result: m.Payload})
	s.Node.Send(comm.Message{Kind: comm.KindJobDone, To: e.it.Client, Seq: e.it.Job.ID, Payload: payload})
	if err := s.maybeCompleteDrain(m.From); err != nil {
		return err
	}
	return s.pump()
}

// onExecutorNack re-homes a job a draining executor returned unstarted.
func (s *Server) onExecutorNack(m comm.Message) error {
	e := s.seqs[m.Seq]
	if e != nil && e.place == m.From {
		s.unlink(e)
		if s.Counters != nil {
			s.Counters.TasksOffloaded.Add(1)
		}
		s.requeue(e)
	}
	if err := s.maybeCompleteDrain(m.From); err != nil {
		return err
	}
	return s.pump()
}

// unlink removes a dispatched entry from both indexes.
func (s *Server) unlink(e *inflight) {
	delete(s.seqs, e.seq)
	if om := s.outstanding[e.place]; om != nil {
		delete(om, e.seq)
	}
}

// requeue returns a job to the head of the fair-share discipline (its
// admission slot is still held, so no re-admission).
func (s *Server) requeue(e *inflight) {
	s.fs.Push(e.it.Job.Tenant, e.it)
}

// slot returns the first alive, non-draining executor at or after
// preferred with window capacity, skipping places in skip; -1 if none.
func (s *Server) slot(preferred int, skip map[int]bool) int {
	if preferred < 1 {
		preferred = 1
	}
	for try := 0; try < s.Places; try++ {
		dest := 1 + (preferred-1+try)%(s.Places-1)
		if !s.alive[dest] || s.draining[dest] || skip[dest] {
			continue
		}
		if len(s.outstanding[dest]) >= s.window() {
			continue
		}
		return dest
	}
	return -1
}

// pump moves queued jobs into free executor windows under the DRR
// discipline, stopping when capacity runs out, every reachable executor
// sheds with backpressure, or the queues drain.
func (s *Server) pump() error {
	skip := map[int]bool(nil)
	for s.fs.Len() > 0 {
		dest := s.slot(s.rr, skip)
		if dest < 0 {
			return nil // saturated (or momentarily shed): resume on the next event
		}
		it, ok := s.fs.Pop()
		if !ok {
			return nil
		}
		now := s.now()
		if it.Job.DeadlineNS > 0 && now >= it.Job.DeadlineNS {
			s.expire(it)
			continue
		}
		err := s.place(it, dest, now)
		if errors.Is(err, comm.ErrPlaceDown) {
			if err := s.markDown(dest); err != nil {
				return err
			}
			s.fs.Push(it.Job.Tenant, it)
			continue
		}
		if errors.Is(err, comm.ErrBackpressure) {
			// The executor's queue is full: a typed shed, not a failure.
			// Park the job back in its tenant queue and stop hammering
			// this destination until the next event frees it.
			if skip == nil {
				skip = make(map[int]bool)
			}
			skip[dest] = true
			s.fs.Push(it.Job.Tenant, it)
			continue
		}
		if err != nil {
			// Any other send failure (a route still assembling, a transient
			// link error) is treated like a shed: the job keeps its admission
			// slot and goes out on a later pump or the RetryAfter sweep. A
			// genuinely dead executor is caught by typed errors or the
			// failure detector.
			s.logf("server: dispatch to executor %d: %v", dest, err)
			if skip == nil {
				skip = make(map[int]bool)
			}
			skip[dest] = true
			s.fs.Push(it.Job.Tenant, it)
			continue
		}
		s.rr = dest + 1
	}
	return nil
}

// expire drops a deadline-passed job and nacks its client.
func (s *Server) expire(it Item) {
	s.adm.Complete(it.Job.Tenant)
	if s.Stats != nil {
		s.Stats.Tenant(it.Job.Tenant).Expired.Add(1)
	}
	s.reject(it.Client, it.Job, NackDeadline, 0)
}

// place dispatches one job to dest, registering it as in flight.
func (s *Server) place(it Item, dest int, nowNS int64) error {
	env := &task.Envelope{
		Name:   it.Job.Name,
		Arg:    it.Job.Arg,
		Home:   dest,
		Origin: 0,
		Class:  task.Flexible,
		Tenant: it.Job.Tenant,
	}
	payload, err := env.Encode()
	if err != nil {
		return err
	}
	s.nextSeq++
	seq := s.nextSeq
	if err := s.Node.Send(comm.Message{Kind: comm.KindSpawn, To: dest, Seq: seq, Payload: payload}); err != nil {
		return err
	}
	e := &inflight{it: it, seq: seq, place: dest}
	if s.outstanding[dest] == nil {
		s.outstanding[dest] = make(map[uint64]*inflight)
	}
	s.outstanding[dest][seq] = e
	s.seqs[seq] = e
	if s.Stats != nil {
		s.Stats.Tenant(it.Job.Tenant).QueueWait.Record(nowNS - it.AdmittedNS)
	}
	return nil
}

// markDown records an executor failure and requeues its in-flight jobs.
func (s *Server) markDown(p int) error {
	if p <= 0 || p >= s.Places || !s.alive[p] {
		return nil
	}
	s.alive[p] = false
	s.draining[p] = false
	s.members.MarkDown(p, s.now())
	if s.Counters != nil {
		s.Counters.PlacesLost.Add(1)
	}
	orphans := s.outstanding[p]
	delete(s.outstanding, p)
	s.logf("server: executor %d down, re-homing %d job(s)", p, len(orphans))
	for _, e := range orphans {
		delete(s.seqs, e.seq)
		if s.Counters != nil {
			s.Counters.TasksReExecuted.Add(1)
		}
		s.requeue(e)
	}
	return s.pump()
}

// retryOutstanding re-dispatches every in-flight job after a silent
// period. Completions deduplicate by dispatch seq, so the twin that
// loses the race is dropped.
func (s *Server) retryOutstanding() error {
	var stale []*inflight
	for _, e := range s.seqs {
		stale = append(stale, e)
	}
	for _, e := range stale {
		if s.seqs[e.seq] == nil {
			continue // completed while we were resending
		}
		if s.Counters != nil {
			s.Counters.Retries.Add(1)
		}
		s.unlink(e)
		s.requeue(e)
	}
	return s.pump()
}

// detect runs one failure-detector sweep (see node.Coordinator.detect).
func (s *Server) detect() error {
	for _, tr := range s.members.Tick(s.now()) {
		switch tr.To {
		case member.Suspect:
			if s.Counters != nil {
				s.Counters.HeartbeatMisses.Add(1)
			}
			s.logf("server: executor %d suspected (silent too long)", tr.Place)
		case member.Down:
			s.logf("server: executor %d declared down by failure detector", tr.Place)
			if err := s.markDown(tr.Place); err != nil {
				return err
			}
		}
	}
	return nil
}

// onHeartbeat refreshes the member table and acks with the server's view
// (see node.Coordinator.onHeartbeat for the rejoin contract).
func (s *Server) onHeartbeat(m comm.Message) error {
	if m.From <= 0 || m.From >= s.Places {
		return nil
	}
	p, err := member.DecodePayload(m.Payload)
	if err != nil {
		return nil
	}
	now := s.now()
	if tr, ok := s.members.Heartbeat(m.From, p.Incarnation, now); ok && tr.To == member.Alive {
		switch tr.From {
		case member.Suspect:
			s.logf("server: executor %d refuted suspicion", m.From)
		case member.Down, member.Left, member.Unknown:
			if err := s.admit(m.From, tr); err != nil {
				return err
			}
		}
	}
	ack := member.Payload{
		Incarnation: s.members.Incarnation(m.From),
		Epoch:       s.members.Epoch(),
		State:       s.members.State(m.From),
	}
	s.Node.Send(comm.Message{Kind: comm.KindHeartbeat, To: m.From,
		Payload: member.AppendPayload(nil, ack)})
	return nil
}

// onJoin admits a joining or rejoining executor.
func (s *Server) onJoin(m comm.Message) error {
	if m.From <= 0 || m.From >= s.Places {
		return nil
	}
	p, err := member.DecodePayload(m.Payload)
	if err != nil {
		return nil
	}
	tr, ok := s.members.Join(m.From, p.Incarnation, s.now())
	if !ok {
		s.logf("server: stale join from executor %d (incarnation %d)", m.From, p.Incarnation)
		return nil
	}
	return s.admit(m.From, tr)
}

// admit makes an executor eligible for dispatch and pumps the backlog.
func (s *Server) admit(p int, tr member.Transition) error {
	rejoin := tr.From == member.Down || tr.From == member.Left
	s.alive[p] = true
	s.draining[p] = false
	if s.Counters != nil {
		if rejoin {
			s.Counters.MembershipRejoins.Add(1)
		} else {
			s.Counters.MembershipJoins.Add(1)
		}
	}
	s.logf("server: executor %d joined (incarnation %d, rejoin=%v)", p, tr.Incarnation, rejoin)
	return s.pump()
}

// onDrain starts an executor's graceful departure.
func (s *Server) onDrain(m comm.Message) error {
	if m.From <= 0 || m.From >= s.Places || s.draining[m.From] || !s.alive[m.From] {
		return nil
	}
	s.draining[m.From] = true
	s.members.Drain(m.From, s.now())
	if s.Counters != nil {
		s.Counters.MembershipDrains.Add(1)
	}
	s.logf("server: executor %d draining (%d job(s) outstanding there)",
		m.From, len(s.outstanding[m.From]))
	if err := s.maybeCompleteDrain(m.From); err != nil {
		return err
	}
	return s.pump()
}

// maybeCompleteDrain releases a draining executor once it is empty.
func (s *Server) maybeCompleteDrain(p int) error {
	if p <= 0 || p >= s.Places || !s.draining[p] || !s.alive[p] {
		return nil
	}
	if len(s.outstanding[p]) > 0 {
		return nil
	}
	s.alive[p] = false
	delete(s.outstanding, p)
	s.members.Left(p, s.now())
	s.logf("server: executor %d drain complete, released", p)
	s.Node.Send(comm.Message{Kind: comm.KindShutdown, To: p})
	return nil
}
