package engine

import (
	"testing"
	"time"
)

// fakeClock is a hand-marched time source for deterministic lease tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

func TestLeaseGrantRenewComplete(t *testing.T) {
	clk := newFakeClock()
	lt := NewLeaseTable(time.Second, clk.now)

	a, ok := lt.Grant(3, "w1")
	if !ok || a != 0 {
		t.Fatalf("Grant = (%d, %v), want (0, true)", a, ok)
	}
	clk.advance(500 * time.Millisecond)
	if !lt.Renew(3, 0, "w1") {
		t.Fatal("Renew of live lease refused")
	}
	clk.advance(900 * time.Millisecond) // inside renewed TTL
	if exp := lt.Sweep(); len(exp) != 0 {
		t.Fatalf("Sweep fenced a renewed lease: %v", exp)
	}
	if !lt.Complete(3, 0) {
		t.Fatal("Complete of current attempt refused")
	}
	if lt.Complete(3, 0) {
		t.Fatal("second Complete accepted")
	}
	if _, ok := lt.Grant(3, "w2"); ok {
		t.Fatal("Grant of done task accepted")
	}
}

func TestLeaseExpiryFencesAttempt(t *testing.T) {
	clk := newFakeClock()
	lt := NewLeaseTable(time.Second, clk.now)
	lt.Grant(0, "w1")

	clk.advance(1100 * time.Millisecond)
	exp := lt.Sweep()
	if len(exp) != 1 || exp[0] != (Expired{Task: 0, Attempt: 0, Owner: "w1"}) {
		t.Fatalf("Sweep = %v, want task 0 attempt 0 of w1", exp)
	}
	// The old owner is fenced on every path.
	if lt.Renew(0, 0, "w1") {
		t.Fatal("Renew of expired lease accepted")
	}
	a2, ok := lt.Grant(0, "w2")
	if !ok || a2 != 1 {
		t.Fatalf("re-Grant = (%d, %v), want (1, true)", a2, ok)
	}
	if lt.Complete(0, 0) {
		t.Fatal("stale attempt's Complete accepted after re-grant")
	}
	if !lt.Complete(0, 1) {
		t.Fatal("current attempt's Complete refused")
	}
	if got := lt.Attempts(0); got != 2 {
		t.Errorf("Attempts = %d, want 2", got)
	}
}

func TestLeaseSpeculativeDuplicateFirstWins(t *testing.T) {
	clk := newFakeClock()
	lt := NewLeaseTable(time.Second, clk.now)
	lt.Grant(7, "slow")
	// Speculative duplicate while the first lease is still live.
	a2, ok := lt.Grant(7, "fast")
	if !ok || a2 != 1 {
		t.Fatalf("speculative Grant = (%d, %v), want (1, true)", a2, ok)
	}
	// The original execution is now stale everywhere.
	if lt.Renew(7, 0, "slow") {
		t.Fatal("stale renew accepted")
	}
	if !lt.Complete(7, 1) {
		t.Fatal("speculative attempt's Complete refused")
	}
	if lt.Complete(7, 0) {
		t.Fatal("fenced original completed after the duplicate won")
	}
}

func TestLeaseExpireOwner(t *testing.T) {
	clk := newFakeClock()
	lt := NewLeaseTable(time.Minute, clk.now)
	lt.Grant(1, "w1")
	lt.Grant(2, "w1")
	lt.Grant(3, "w2")
	exp := lt.ExpireOwner("w1")
	if len(exp) != 2 {
		t.Fatalf("ExpireOwner fenced %d leases, want 2: %v", len(exp), exp)
	}
	if _, active, _ := lt.Current(3); !active {
		t.Fatal("w2's lease was collaterally fenced")
	}
	if lt.Renew(1, 0, "w1") || lt.Renew(2, 0, "w1") {
		t.Fatal("dead owner can still renew")
	}
}

func TestLeaseReleaseAndSalvage(t *testing.T) {
	clk := newFakeClock()
	lt := NewLeaseTable(time.Minute, clk.now)
	lt.Grant(4, "w1")
	if !lt.Release(4, 0) {
		t.Fatal("Release of current lease refused")
	}
	if lt.Release(4, 0) {
		t.Fatal("double Release accepted")
	}
	if _, active, done := lt.Current(4); active || done {
		t.Fatal("released task should be inactive and not done")
	}
	// Salvage adopts a dead worker's completed output regardless of the
	// attempt bookkeeping, once.
	if !lt.CompleteSalvaged(4) {
		t.Fatal("CompleteSalvaged refused")
	}
	if lt.CompleteSalvaged(4) {
		t.Fatal("second CompleteSalvaged accepted")
	}
	if lt.Complete(4, 0) {
		t.Fatal("Complete accepted after salvage")
	}
}
