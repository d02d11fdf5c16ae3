package scheduler

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// queued is one job waiting for a lane. left names the lane a re-routed job
// left ("" for a fresh job).
type queued struct {
	jb   *Job
	left string
}

// jobQueue is the scheduler's one bounded FIFO of jobs waiting for a lane.
// Every lane's dispatchers pull from it. Which idle dispatcher gets which
// job is a fixed matching, not a race between woken goroutines: jobs in
// queue order, each to the first lane in preference order that is Healthy,
// has an idle dispatcher and may take the job. The lane a re-routed job
// left may take it back only when no other lane is healthy. Remote lanes
// come first in the preference order: a coordinator with workers sends
// them its work and keeps its in-process lanes for overflow.
type jobQueue struct {
	lanes []*Lane // preference order
	wake  atomic.Pointer[chan struct{}]

	mu     sync.Mutex // pushes also hold Scheduler.mu, so Submit checks room, then pushes, atomically
	items  []queued
	limit  int // Submit's bound; a re-route is never refused for room
	closed bool
}

func newJobQueue(limit int) *jobQueue {
	q := &jobQueue{limit: limit}
	ch := make(chan struct{})
	q.wake.Store(&ch)
	return q
}

// signal wakes every waiting dispatcher: a job arrived, a circuit changed,
// or the queue closed.
func (q *jobQueue) signal() {
	ch := make(chan struct{})
	close(*q.wake.Swap(&ch))
}

// push appends a job; with left set it goes to the front instead, as a
// re-routed job that was already admitted.
func (q *jobQueue) push(jb *Job, left string) {
	q.mu.Lock()
	if left == "" {
		q.items = append(q.items, queued{jb: jb})
	} else {
		q.items = slices.Insert(q.items, 0, queued{jb: jb, left: left})
	}
	q.mu.Unlock()
	q.signal()
}

// close drops the waiting jobs (Shutdown has canceled them) and releases
// every dispatcher.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.items, q.closed = nil, true
	q.mu.Unlock()
	q.signal()
}

// size returns the queue's depth and bound.
func (q *jobQueue) size() (depth, limit int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items), q.limit
}

// pull blocks until the matching hands lane b a job, counts it as in flight
// on b and returns it; nil once the queue is closed. The caller ends the
// count with b.busy.Add(-1). A dispatcher with nothing to take sleeps until
// the next signal, or until b's open circuit reaches the end of its
// cooldown.
func (q *jobQueue) pull(b *Lane) *Job {
	for {
		// Take the wake channel before looking, so a signal sent after the
		// look cannot be missed.
		wake := *q.wake.Load()
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return nil
		}
		jb := q.match(b)
		q.mu.Unlock()
		if jb != nil {
			return jb
		}
		var cooled <-chan time.Time
		if d := b.br.cooldownLeft(); d > 0 {
			cooled = time.After(d)
		}
		select {
		case <-wake:
		case <-cooled:
		}
	}
}

// match removes and returns the first job the matching gives b, or nil.
// Callers hold q.mu.
func (q *jobQueue) match(b *Lane) *Job {
	free := make([]int, len(q.lanes))
	healthy := make([]bool, len(q.lanes))
	live := 0
	for i, l := range q.lanes {
		free[i] = l.Workers() - int(l.busy.Load())
		if healthy[i] = l.Healthy(); healthy[i] {
			live++
		}
	}
	for k, it := range q.items {
		for i, l := range q.lanes {
			if free[i] <= 0 || !healthy[i] || (l.name == it.left && live > 1) {
				continue
			}
			if l == b {
				q.items = slices.Delete(q.items, k, k+1)
				b.busy.Add(1)
				return it.jb
			}
			free[i]--
			break
		}
	}
	return nil
}
