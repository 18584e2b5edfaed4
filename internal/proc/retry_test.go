package proc

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestBackoffDelaySchedule pins the default schedule: 10ms doubling
// per attempt, capped at 2s.
func TestBackoffDelaySchedule(t *testing.T) {
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		160 * time.Millisecond,
		320 * time.Millisecond,
		640 * time.Millisecond,
		1280 * time.Millisecond,
		2 * time.Second, // capped
		2 * time.Second,
	}
	for i, w := range want {
		if got := delay(i, 0.5); got != w {
			t.Errorf("delay(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	// u=0 → 0.8x, u≈1 → 1.2x, u=0.5 → exactly the base delay.
	if got := delay(0, 0); got != 8*time.Millisecond {
		t.Errorf("delay(0, u=0) = %v, want 8ms", got)
	}
	if got := delay(0, 0.5); got != 10*time.Millisecond {
		t.Errorf("delay(0, u=0.5) = %v, want 10ms", got)
	}
	if got := delay(0, 1); got != 12*time.Millisecond {
		t.Errorf("delay(0, u=1) = %v, want 12ms", got)
	}
}

// TestRetryScheduleDeterministic pins the exact slept durations with an
// injected clock and variate sequence: no real time passes.
func TestRetryScheduleDeterministic(t *testing.T) {
	var slept []time.Duration
	us := []float64{0.5, 0.5, 0, 1}
	ui := 0
	b := Backoff{
		Rand:  func() float64 { u := us[ui]; ui++; return u },
		Sleep: func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil },
	}
	calls := 0
	err := b.Retry(context.Background(), func() error {
		calls++
		if calls < 5 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry: %v", err)
	}
	if calls != 5 {
		t.Fatalf("op called %d times, want 5", calls)
	}
	want := []time.Duration{
		10 * time.Millisecond, // attempt 0, u=0.5 → no jitter shift
		20 * time.Millisecond, // attempt 1, u=0.5
		32 * time.Millisecond, // attempt 2: 40ms, u=0 → 0.8x
		96 * time.Millisecond, // attempt 3: 80ms, u=1 → 1.2x
	}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, slept[i], want[i])
		}
	}
}

func TestRetryAttemptBudget(t *testing.T) {
	calls := 0
	b := Backoff{Sleep: func(context.Context, time.Duration) error { return nil }}
	wantErr := errors.New("still down")
	err := b.Retry(context.Background(), func() error { calls++; return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("Retry = %v, want last attempt error", err)
	}
	if calls != 10 {
		t.Errorf("op called %d times, want 10", calls)
	}
}

func TestRetryContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	b := Backoff{Sleep: func(ctx context.Context, _ time.Duration) error {
		cancel()
		return ctx.Err()
	}}
	err := b.Retry(ctx, func() error { calls++; return errors.New("transient") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Retry = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("op called %d times, want 1", calls)
	}
}
