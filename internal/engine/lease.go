package engine

import (
	"sync"
	"time"
)

// LeaseTable is the scheduler's task-ownership ledger for executions
// that can die without unwinding a Go stack: each task is leased to one
// owner for a TTL, heartbeats renew the lease, and every grant bumps
// the task's attempt number so stale owners are fenced — a report from
// an attempt that is no longer current is simply refused, which is what
// makes re-execution and kill -9 recovery safe. The
// in-process engine gets the same guarantee structurally (a worker
// goroutine cannot outlive its round); the multi-process driver
// (internal/proc) cannot, so it runs every assignment through this
// table.
//
// All methods are safe for concurrent use. Time is injected so tests
// can march the clock deterministically.
type LeaseTable struct {
	ttl time.Duration
	now func() time.Time

	mu     sync.Mutex
	leases map[int]*lease
}

type lease struct {
	attempt  int // current (fencing) attempt; grants bump it
	attempts int // total grants, for retry accounting
	owner    string
	expires  time.Time
	active   bool // an owner currently holds the lease
	done     bool // a current attempt completed; task is finished
}

// Expired describes one lease the table fenced off.
type Expired struct {
	Task    int
	Attempt int
	Owner   string
}

// NewLeaseTable creates a table with the given TTL. now may be nil for
// the real clock; tests inject their own.
func NewLeaseTable(ttl time.Duration, now func() time.Time) *LeaseTable {
	if now == nil {
		now = time.Now
	}
	return &LeaseTable{ttl: ttl, now: now, leases: make(map[int]*lease)}
}

// Grant leases the task to owner and returns the attempt number that
// fences this execution. Granting a task that is already leased bumps
// the attempt — the previous owner's lease is implicitly fenced (its
// renews and completions will be refused). Granting a done task
// returns (-1, false).
func (t *LeaseTable) Grant(task int, owner string) (attempt int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leases[task]
	if l == nil {
		l = &lease{attempt: -1}
		t.leases[task] = l
	}
	if l.done {
		return -1, false
	}
	l.attempt++
	l.attempts++
	l.owner = owner
	l.expires = t.now().Add(t.ttl)
	l.active = true
	return l.attempt, true
}

// Renew extends the lease iff (task, attempt) is still the current
// active lease held by owner. A false return tells the caller its
// execution has been fenced (expired, superseded, or the task is done)
// and its work will be discarded.
func (t *LeaseTable) Renew(task, attempt int, owner string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leases[task]
	if l == nil || l.done || !l.active || l.attempt != attempt || l.owner != owner {
		return false
	}
	l.expires = t.now().Add(t.ttl)
	return true
}

// Complete marks the task done iff (task, attempt) is the current
// attempt and the task is not already done. A false return fences a
// stale completion: the caller must discard the attempt's output.
func (t *LeaseTable) Complete(task, attempt int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leases[task]
	if l == nil || l.done || l.attempt != attempt {
		return false
	}
	l.done = true
	l.active = false
	return true
}

// CompleteSalvaged marks the task done regardless of the current
// attempt, for recovery paths that adopt a dead owner's completed,
// validated output (the attempt finished on disk but its report never
// arrived). Returns false if the task was already done.
func (t *LeaseTable) CompleteSalvaged(task int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leases[task]
	if l == nil {
		l = &lease{attempt: -1}
		t.leases[task] = l
	}
	if l.done {
		return false
	}
	l.done = true
	l.active = false
	return true
}

// Release deactivates the lease iff (task, attempt) is current: the
// owner reported a failed execution and the task should be re-granted
// without waiting for the TTL. Returns false on a stale release.
func (t *LeaseTable) Release(task, attempt int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leases[task]
	if l == nil || l.done || !l.active || l.attempt != attempt {
		return false
	}
	l.active = false
	return true
}

// Sweep fences every active lease whose TTL has passed and returns
// them. Swept tasks are re-grantable (their next Grant bumps the
// attempt past the fenced one).
func (t *LeaseTable) Sweep() []Expired {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var out []Expired
	for task, l := range t.leases {
		if l.active && !l.done && now.After(l.expires) {
			l.active = false
			out = append(out, Expired{Task: task, Attempt: l.attempt, Owner: l.owner})
		}
	}
	return out
}

// ExpireOwner fences every active lease held by owner — the owner's
// process is known dead, so there is no reason to wait out the TTL —
// and returns them.
func (t *LeaseTable) ExpireOwner(owner string) []Expired {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Expired
	for task, l := range t.leases {
		if l.active && !l.done && l.owner == owner {
			l.active = false
			out = append(out, Expired{Task: task, Attempt: l.attempt, Owner: l.owner})
		}
	}
	return out
}

// Current returns the task's current attempt and whether an owner
// actively holds it. done reports a finished task.
func (t *LeaseTable) Current(task int) (attempt int, active, done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leases[task]
	if l == nil {
		return -1, false, false
	}
	return l.attempt, l.active, l.done
}

// Attempts is the total number of grants the task has received — the
// retry accounting the driver caps task re-execution on.
func (t *LeaseTable) Attempts(task int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.leases[task]
	if l == nil {
		return 0
	}
	return l.attempts
}
