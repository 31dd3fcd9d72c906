package measure

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// RateLimiter is a real-time token bucket pacing a live sender. It is
// the wall-clock twin of internal/tokenbucket's virtual-time model:
// the same budget / refill / high / low semantics, but integrated
// against time.Now so it can throttle actual sockets the way EC2
// throttles VMs. Safe for concurrent use.
type RateLimiter struct {
	mu sync.Mutex

	// budgetBytes is the bucket capacity; refillBytesPerSec restores
	// it. highBytesPerSec applies while tokens remain,
	// lowBytesPerSec after depletion.
	budgetBytes       float64
	refillBytesPerSec float64
	highBytesPerSec   float64
	lowBytesPerSec    float64
	reengageBytes     float64

	tokens    float64
	throttled bool
	// paceDebt tracks when the next send is permitted under the
	// current rate cap.
	nextSend time.Time
	last     time.Time

	now   func() time.Time
	sleep func(time.Duration)
}

// NewRateLimiter builds a limiter with EC2-like semantics. Rates are
// in bytes per second; budget in bytes. A zero budget produces a
// constant-rate pacer at low rate.
func NewRateLimiter(budgetBytes, refillBytesPerSec, highBytesPerSec, lowBytesPerSec float64) (*RateLimiter, error) {
	switch {
	case budgetBytes < 0:
		return nil, fmt.Errorf("measure: negative budget")
	case refillBytesPerSec < 0:
		return nil, fmt.Errorf("measure: negative refill")
	case highBytesPerSec <= 0 || lowBytesPerSec <= 0:
		return nil, fmt.Errorf("measure: rates must be positive")
	case lowBytesPerSec > highBytesPerSec:
		return nil, fmt.Errorf("measure: low rate above high rate")
	}
	l := &RateLimiter{
		budgetBytes:       budgetBytes,
		refillBytesPerSec: refillBytesPerSec,
		highBytesPerSec:   highBytesPerSec,
		lowBytesPerSec:    lowBytesPerSec,
		reengageBytes:     math.Max(1, budgetBytes*0.005),
		tokens:            budgetBytes,
		now:               time.Now,
		sleep:             time.Sleep,
	}
	l.throttled = l.tokens < l.reengageBytes
	l.last = l.now()
	l.nextSend = l.last
	return l, nil
}

// Tokens returns the current token level in bytes.
func (l *RateLimiter) Tokens() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.advance(l.now())
	return l.tokens
}

// Throttled reports whether the limiter is in its low-rate regime.
func (l *RateLimiter) Throttled() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.advance(l.now())
	return l.throttled
}

// advance refills tokens for elapsed wall time. Callers hold l.mu.
func (l *RateLimiter) advance(now time.Time) {
	dt := now.Sub(l.last).Seconds()
	if dt <= 0 {
		return
	}
	l.last = now
	if l.budgetBytes == 0 {
		return
	}
	l.tokens = math.Min(l.budgetBytes, l.tokens+l.refillBytesPerSec*dt)
	if l.tokens >= l.reengageBytes {
		l.throttled = false
	}
}

// Wait blocks until n bytes may be sent, charging the bucket.
func (l *RateLimiter) Wait(n int) {
	if n <= 0 {
		return
	}
	l.mu.Lock()
	now := l.now()
	l.advance(now)

	// A zero budget is always throttled, like an empty EC2 bucket.
	rate := l.highBytesPerSec
	if l.throttled {
		rate = l.lowBytesPerSec
	}
	if l.budgetBytes > 0 {
		l.tokens -= float64(n)
		if l.tokens <= 0 {
			l.tokens = 0
			l.throttled = true
		}
	}

	// Pacing: space sends so the average rate matches the cap.
	if l.nextSend.Before(now) {
		l.nextSend = now
	}
	sendAt := l.nextSend
	l.nextSend = l.nextSend.Add(time.Duration(float64(n) / rate * float64(time.Second)))
	l.mu.Unlock()

	if d := sendAt.Sub(now); d > 0 {
		l.sleep(d)
	}
}
