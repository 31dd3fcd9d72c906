package measure

import (
	"math"
	"sync"
	"testing"
	"time"
)

func startServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	return s
}

func TestBulkTransfer(t *testing.T) {
	s := startServer(t)
	res, err := RunBulk(s.Addr(), BulkConfig{
		Duration:   300 * time.Millisecond,
		Interval:   50 * time.Millisecond,
		WriteBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBytes == 0 {
		t.Fatal("no bytes moved")
	}
	if len(res.Intervals) < 3 {
		t.Errorf("only %d intervals recorded", len(res.Intervals))
	}
	if res.MeanMbps() <= 0 {
		t.Errorf("mean goodput %g", res.MeanMbps())
	}
	// Loopback should comfortably exceed 100 Mbps unshaped.
	if res.MeanMbps() < 100 {
		t.Errorf("loopback goodput %g Mbps suspiciously low", res.MeanMbps())
	}
	// Give the server a beat to drain its receive buffer.
	deadline := time.Now().Add(2 * time.Second)
	for s.bytesReceived.Load() < res.TotalBytes && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.bytesReceived.Load(); got != res.TotalBytes {
		t.Errorf("server received %d, client sent %d", got, res.TotalBytes)
	}
}

func TestBulkConfigValidation(t *testing.T) {
	bad := []BulkConfig{
		{Duration: 0, Interval: time.Millisecond, WriteBytes: 1},
		{Duration: time.Second, Interval: 0, WriteBytes: 1},
		{Duration: time.Second, Interval: 2 * time.Second, WriteBytes: 1},
		{Duration: time.Second, Interval: time.Millisecond, WriteBytes: 0},
		{Duration: time.Second, Interval: time.Millisecond, WriteBytes: 16 << 20},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestShapedBulkRespectsRate(t *testing.T) {
	s := startServer(t)
	const targetBytesPerSec = 4 << 20 // 4 MiB/s = ~33.5 Mbps
	lim, err := NewRateLimiter(0, 0, targetBytesPerSec, targetBytesPerSec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBulk(s.Addr(), BulkConfig{
		Duration:   400 * time.Millisecond,
		Interval:   100 * time.Millisecond,
		WriteBytes: 32 << 10,
		Limiter:    lim,
	})
	if err != nil {
		t.Fatal(err)
	}
	achieved := float64(res.TotalBytes) / res.Duration.Seconds()
	// Within 40% of target (timer jitter on shared CI machines).
	if achieved > targetBytesPerSec*1.4 || achieved < targetBytesPerSec*0.4 {
		t.Errorf("shaped rate %.0f B/s, target %d", achieved, targetBytesPerSec)
	}
}

func TestTokenBucketLimiterThrottles(t *testing.T) {
	s := startServer(t)
	// Budget covers ~the first 100 ms at high rate, then the low rate
	// takes over: the live-socket version of Figure 7.
	const (
		high   = 16 << 20 // 16 MiB/s
		low    = 2 << 20  // 2 MiB/s
		budget = 1600 << 10
	)
	lim, err := NewRateLimiter(budget, low, high, low)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBulk(s.Addr(), BulkConfig{
		Duration:   600 * time.Millisecond,
		Interval:   100 * time.Millisecond,
		WriteBytes: 32 << 10,
		Limiter:    lim,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The bucket must have drained well below its budget (it may
	// briefly re-engage once the sender stops, which is correct:
	// resting refills).
	if tok := lim.Tokens(); tok > budget/2 {
		t.Errorf("bucket barely used: %.0f of %d bytes left", tok, budget)
	}
	if len(res.Intervals) < 4 {
		t.Fatalf("too few intervals: %d", len(res.Intervals))
	}
	first := res.Intervals[0].Mbps
	last := res.Intervals[len(res.Intervals)-1].Mbps
	if last > first*0.7 {
		t.Errorf("no visible throttle: first %.1f Mbps, last %.1f Mbps", first, last)
	}
}

func TestMeasureRTT(t *testing.T) {
	s := startServer(t)
	rtts, err := MeasureRTT(s.Addr(), 50, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rtts) != 50 {
		t.Fatalf("got %d RTTs", len(rtts))
	}
	for i, rtt := range rtts {
		if rtt <= 0 {
			t.Errorf("rtt[%d] = %v", i, rtt)
		}
		if rtt > time.Second {
			t.Errorf("rtt[%d] = %v on loopback", i, rtt)
		}
	}
}

func TestMeasureRTTPayloadSizeEffect(t *testing.T) {
	// Larger payloads take longer to echo — the Figure 12 mechanism
	// visible on a real socket.
	s := startServer(t)
	small, err := MeasureRTT(s.Addr(), 30, 64)
	if err != nil {
		t.Fatal(err)
	}
	large, err := MeasureRTT(s.Addr(), 30, 512<<10)
	if err != nil {
		t.Fatal(err)
	}
	if median(large) < median(small) {
		t.Errorf("512K ping median %v below 64B median %v", median(large), median(small))
	}
}

func median(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}

func TestMeasureRTTValidation(t *testing.T) {
	s := startServer(t)
	if _, err := MeasureRTT(s.Addr(), 0, 64); err == nil {
		t.Error("zero pings should error")
	}
	if _, err := MeasureRTT(s.Addr(), 1, 0); err == nil {
		t.Error("zero payload should error")
	}
	if _, err := MeasureRTT(s.Addr(), 1, maxPingBytes+1); err == nil {
		t.Error("oversized payload should error")
	}
	if _, err := MeasureRTT("127.0.0.1:1", 1, 64); err == nil {
		t.Error("dead address should error")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestConcurrentSessions(t *testing.T) {
	s := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, err := RunBulk(s.Addr(), BulkConfig{
				Duration: 150 * time.Millisecond, Interval: 50 * time.Millisecond,
				WriteBytes: 16 << 10,
			})
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := MeasureRTT(s.Addr(), 20, 128)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if s.sessions.Load() != 8 {
		t.Errorf("sessions = %d, want 8", s.sessions.Load())
	}
}

func TestRateLimiterValidation(t *testing.T) {
	cases := []struct{ budget, refill, high, low float64 }{
		{-1, 0, 1, 1},
		{0, -1, 1, 1},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
		{0, 0, 1, 2},
	}
	for i, c := range cases {
		if _, err := NewRateLimiter(c.budget, c.refill, c.high, c.low); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestRateLimiterPacingMath(t *testing.T) {
	// Deterministic clock: verify pacing spacing without sleeping.
	lim, err := NewRateLimiter(0, 0, 1000, 1000) // 1000 B/s
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	var slept time.Duration
	lim.now = func() time.Time { return now }
	lim.sleep = func(d time.Duration) { slept += d }
	lim.last = now
	lim.nextSend = now

	lim.Wait(500) // first send immediate, schedules next at +0.5 s
	if slept != 0 {
		t.Errorf("first send slept %v", slept)
	}
	lim.Wait(500) // must wait 0.5 s
	if math.Abs(slept.Seconds()-0.5) > 1e-9 {
		t.Errorf("second send slept %v, want 500ms", slept)
	}
	lim.Wait(0) // no-op
	if math.Abs(slept.Seconds()-0.5) > 1e-9 {
		t.Errorf("zero-byte wait slept")
	}
}

func TestRateLimiterBucketSemantics(t *testing.T) {
	lim, err := NewRateLimiter(1000, 100, 10000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	lim.now = func() time.Time { return now }
	lim.sleep = func(time.Duration) {}
	lim.last = now
	lim.nextSend = now

	if lim.Throttled() {
		t.Error("fresh limiter should not be throttled")
	}
	lim.Wait(1000) // drains the bucket exactly
	if !lim.Throttled() {
		t.Error("drained limiter should throttle")
	}
	// Resting refills: 5 s × 100 B/s = 500 B ≥ re-engage threshold.
	now = now.Add(5 * time.Second)
	if lim.Throttled() {
		t.Error("rested limiter should re-engage")
	}
	if tok := lim.Tokens(); math.Abs(tok-500) > 1e-9 {
		t.Errorf("tokens = %g, want 500", tok)
	}
}
