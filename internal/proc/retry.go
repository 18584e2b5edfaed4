// Capped exponential backoff with jitter: the retry policy behind a
// worker's dial, polls and reports to the driver. Data-plane work is
// never retried here — task re-execution is the driver's leases' job,
// with attempt fencing; this helper only covers transient transport
// failures where the operation itself is idempotent.
package proc

import (
	"context"
	"math/rand"
	"time"
)

// The retry schedule: backoffBase, doubling per attempt up to
// backoffMax, each delay multiplied by a random factor in
// [1-backoffJitter, 1+backoffJitter] so synchronized clients spread
// out, for at most backoffAttempts calls.
const (
	backoffBase     = 10 * time.Millisecond
	backoffMax      = 2 * time.Second
	backoffFactor   = 2
	backoffJitter   = 0.2
	backoffAttempts = 10
)

// Backoff retries an operation on that schedule. The zero value is the
// policy; its fields are test seams.
type Backoff struct {
	// Rand supplies the uniform variates for jitter; nil uses the global
	// math/rand source. Tests inject a deterministic sequence.
	Rand func() float64
	// Sleep waits for d or until the context is done; nil uses a real
	// timer. Tests inject a recorder to check the schedule without
	// sleeping.
	Sleep func(ctx context.Context, d time.Duration) error
}

// delay is the pure schedule: the pause before retrying after the given
// zero-based failed attempt, with u in [0,1) as the jitter variate.
func delay(attempt int, u float64) time.Duration {
	d := backoffBase
	for i := 0; i < attempt && d < backoffMax; i++ {
		d *= backoffFactor
	}
	d = min(d, backoffMax)
	return time.Duration(float64(d) * (1 + backoffJitter*(2*u-1)))
}

// Retry runs op until it succeeds, the attempt budget is spent, or the
// context is done. The returned error is the last attempt's, or the
// context's error when it won the race.
func (b Backoff) Retry(ctx context.Context, op func() error) error {
	randf := b.Rand
	if randf == nil {
		randf = rand.Float64
	}
	sleep := b.Sleep
	if sleep == nil {
		sleep = realSleep
	}
	var lastErr error
	for attempt := 0; attempt < backoffAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if lastErr = op(); lastErr == nil {
			return nil
		}
		if attempt == backoffAttempts-1 {
			break
		}
		if err := sleep(ctx, delay(attempt, randf())); err != nil {
			return err
		}
	}
	return lastErr
}

// realSleep waits for d on a timer, or returns the context's error if
// it is done first.
func realSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
