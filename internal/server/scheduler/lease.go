// Lease-based ownership of dispatched jobs. Every job a lane hands to its
// worker carries a deadline-bound lease, journaled so the audit trail
// shows who owned what when. While the attempt is in flight a renewal loop
// pings the worker and extends the lease — a busy-but-alive worker keeps
// its job indefinitely — so only a dead, hung or partitioned worker lets
// the lease lapse. The monitor sweeps running jobs, and an expired lease
// re-routes the job through the live ring exactly like a dispatch failure
// would, invalidating the old attempt's epoch first so a zombie completion
// arriving later is dropped by beginFinish (the exactly-once guard).
package scheduler

import (
	"context"
	"fmt"
	"time"

	"mthplace/internal/errs"
	"mthplace/internal/journal"
)

// startLeaseLoop launches the monitor goroutine. It sweeps every lane's
// jobs: an in-process worker is leased like a remote one, so one chaos
// suite guards both.
func (s *Scheduler) startLeaseLoop() {
	s.leaseStop = make(chan struct{})
	s.leaseWG.Add(1)
	go func() {
		defer s.leaseWG.Done()
		t := time.NewTicker(s.opt.LeaseDuration / 4)
		defer t.Stop()
		for {
			select {
			case <-s.leaseStop:
				return
			case <-t.C:
				s.sweepLeases(time.Now())
			}
		}
	}()
}

// stopLeaseLoop stops the monitor (idempotent under Shutdown's single-shot
// accepting gate) and waits for the sweep in flight to finish.
func (s *Scheduler) stopLeaseLoop() {
	if s.leaseStop == nil {
		return
	}
	close(s.leaseStop)
	s.leaseWG.Wait()
}

// sweepLeases finds running jobs whose lease lapsed before now and
// re-routes them. A job out of re-route budget (or with nowhere to go) is
// instead failed through its running attempt: the monitor plants the
// terminal cause and cancels the attempt's context, and the attempt's
// unwind consumes the cause so the job reports backend unavailability, not
// a cancellation it never asked for.
func (s *Scheduler) sweepLeases(now time.Time) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, jb := range jobs {
		epoch, expired := jb.leaseExpired(now)
		if !expired {
			continue
		}
		s.mLeaseExp.Inc()
		s.journal(jb, journal.EventLeaseExpired, nil)
		s.traceInstant(jb, "lease_expired", map[string]any{"epoch": epoch, "backend": jb.backendName()})
		s.log.Warn("job lease expired", "job", jb.ID, "trace_id", jb.TraceID(), "epoch", epoch)
		if s.reroute(jb, epoch) {
			continue
		}
		jb.condemn(epoch, fmt.Errorf("lease expired and no live backend would take the job: %w", errs.ErrUnavailable))
	}
}

// journalLeased records a lease grant with its owner and deadline.
func (s *Scheduler) journalLeased(jb *Job, backend string, deadline time.Time) {
	if s.jrnl == nil {
		return
	}
	d := deadline
	_ = s.jrnl.Append(journal.Entry{Seq: jb.seqn, Job: jb.ID, Event: journal.EventLeased, Backend: backend, Deadline: &d})
}

// reroute moves a running job whose attempt (epoch) failed or timed out
// onto another live lane, falling back to a fresh attempt on its own lane
// when that lane is healthy and no other qualifies. It returns false —
// leaving the job with its current attempt — when intake is closed, the
// re-route budget is spent, the attempt already began finishing, or no
// live lane (its own included) has queue room.
// The old attempt's context is canceled only after the job is safely
// enqueued elsewhere; by then the old epoch is stale, so whatever that
// attempt still produces is discarded by beginFinish.
func (s *Scheduler) reroute(jb *Job, epoch int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.accepting {
		return false // shutdown: lanes are closing, nothing to re-route onto
	}
	from := s.laneIndex(jb.backendName())
	hasRoom := func(i int) bool {
		b := s.backends[i]
		return b.Healthy() && b.Depth() < b.Capacity()
	}
	idx, ok := s.ring.pickLive(routingKey(jb.keys), from, hasRoom)
	if !ok {
		// Nowhere else to go — but a lapsed lease does not indict the lane:
		// a renewal can simply have missed its window (scheduler starvation,
		// or a healed partition whose old response path is dead). A healthy
		// current lane with queue room takes the job back as a fresh
		// attempt — the new epoch invalidates the old one and its possibly
		// hung dispatch is canceled below — rather than failing a job a
		// live worker could run.
		if from < 0 || !hasRoom(from) {
			return false
		}
		idx = from
	}
	cancel, ok := jb.requeue(epoch, s.opt.RerouteMax)
	if !ok {
		return false
	}
	fromName := jb.backendName()
	be := s.backends[idx]
	jb.setBackendName(be.Name())
	s.journalRerouted(jb, be.Name())
	s.mReroutes.Inc()
	s.traceInstant(jb, "reroute", map[string]any{"from": fromName, "to": be.Name(), "epoch": epoch})
	// Cannot fail: room was checked above and every Enqueue is under s.mu.
	if err := be.Enqueue(jb); err != nil {
		// Defensive: never strand a Queued job that sits in no queue.
		jb.finish(fmt.Errorf("re-route enqueue to %s: %w: %w", be.Name(), err, errs.ErrUnavailable))
		s.journal(jb, terminalEvent(jb), err)
		if jb.countFinish() {
			s.mFinished.Inc()
		}
		s.traceRoot(jb)
	}
	if cancel != nil {
		cancel()
	}
	s.log.Info("job re-routed", "job", jb.ID, "trace_id", jb.TraceID(), "to", be.Name())
	return true
}

// journalRerouted records the job's new owner lane.
func (s *Scheduler) journalRerouted(jb *Job, backend string) {
	if s.jrnl == nil {
		return
	}
	_ = s.jrnl.Append(journal.Entry{Seq: jb.seqn, Job: jb.ID, Event: journal.EventRerouted, Backend: backend})
}

// laneIndex resolves a backend name to its lane index (-1 when unknown).
// Callers hold s.mu.
func (s *Scheduler) laneIndex(name string) int {
	for i, b := range s.backends {
		if b.Name() == name {
			return i
		}
	}
	return -1
}

// startLeaseRenewal launches the per-attempt renewal loop: every third of
// the lease duration it pings the worker and, on success, pushes the lease
// deadline out. The returned stop function is deferred by the attempt; the
// loop also exits when the attempt's context ends, when the renewal races
// a re-route (renewLease rejects the stale epoch), or when the lease
// already lapsed (renewLease refuses to resurrect it — the monitor owns
// an expired lease's fate).
func (s *Scheduler) startLeaseRenewal(ctx context.Context, jb *Job, epoch int64, rb *Lane) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(s.opt.LeaseDuration / 3)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if rb.Ping(ctx) != nil {
					continue // expiry is the monitor's call, not ours
				}
				now := time.Now()
				if !jb.renewLease(epoch, now, now.Add(s.opt.LeaseDuration)) {
					return // lease lapsed or epoch stale: the job moved on
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
