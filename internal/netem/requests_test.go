package netem

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cloudvar/internal/simrand"
)

// refAt, refTransferEnd and refServeRequests are the serving loop
// before its envelope cursor, verbatim: every request found its
// interval by binary search. TestServeRequestsMatchesReference and
// FuzzServeRequests hold the cursor to them: bit-equal latencies and
// equal errors.

// refAt returns the interval index covering time t (the last interval
// for t beyond the end, the first for t before the start).
func (e PathEnvelope) refAt(t float64) int {
	// Linear scan from a hint would do, but callers advance
	// monotonically; binary search keeps this correct for any use.
	lo, hi := 0, len(e.Times)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if e.Times[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// refTransferEnd returns when a transfer of gbit starting at start
// completes under the envelope. Beyond the last interval the final
// bandwidth persists; if that is zero the transfer can still complete
// only within the envelope, otherwise an error reports the stall.
func (e PathEnvelope) refTransferEnd(start, gbit float64) (float64, error) {
	t := start
	remaining := gbit
	for i := e.refAt(t); i < len(e.Times); i++ {
		if t < e.Times[i] {
			t = e.Times[i]
		}
		bw := e.Gbps[i]
		if i == len(e.Times)-1 {
			// Terminal interval: unbounded extent.
			if bw <= 0 {
				return 0, fmt.Errorf("netem: transfer stalled at %g s: path bandwidth is zero past the envelope", t)
			}
			return t + remaining/bw, nil
		}
		if bw <= 0 {
			continue
		}
		width := e.Times[i+1] - t
		if capacity := bw * width; capacity >= remaining {
			return t + remaining/bw, nil
		} else {
			remaining -= capacity
			t = e.Times[i+1]
		}
	}
	return 0, fmt.Errorf("netem: transfer stalled") // unreachable: loop ends at the terminal interval
}

// refServeRequests is ServeRequests over refTransferEnd.
func refServeRequests(dst []float64, reqs []Request, gbit float64, env PathEnvelope, model VNICModel, writeBytes int, src *simrand.Source) ([]float64, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if gbit <= 0 {
		return nil, fmt.Errorf("netem: request volume %g gbit must be positive", gbit)
	}
	latencies := slices.Grow(dst, len(reqs))
	queued := model.queuedBytes(writeBytes, false)
	free := 0.0 // when the server next idles
	for i, r := range reqs {
		if i > 0 && r.TimeSec < reqs[i-1].TimeSec {
			return nil, fmt.Errorf("netem: request %d (%g s) precedes request %d", i, r.TimeSec, i-1)
		}
		start := r.TimeSec
		if free > start {
			start = free
		}
		done, err := env.refTransferEnd(start, gbit)
		if err != nil {
			return nil, fmt.Errorf("netem: request %d: %w", i, err)
		}
		free = done
		// The RTT sample sees the rate the transfer actually achieved,
		// which is positive by construction (a completed transfer moved
		// gbit > 0 in done-start seconds).
		rate := gbit / (done - start)
		rtt := jitterRTT(src, queueLatencyMs(model.BaseRTTms, queued, rate), model.RTTJitterFrac)
		latencies = append(latencies, (done-r.TimeSec)*1000+rtt)
	}
	return latencies, nil
}

// serveCase is one request replay to compare.
type serveCase struct {
	env   PathEnvelope
	reqs  []Request
	gbit  float64
	model VNICModel
	write int
}

// matchServe replays c through ServeRequests and the reference from
// the same RTT seed and fails unless both give the same error, or the
// same latencies bit for bit, and unless a nil error comes with no NaN
// or infinite latency. The reference serves a NaN or +Inf arrival and a
// -Inf first arrival, which ServeRequests refuses: a case with one is
// held to the reference over the requests before the first, and then
// to that one's refusal. Both refuse a NaN or infinite envelope
// bandwidth through Validate; with the ordered finite times and
// non-negative bandwidths seededServe builds, the first such bandwidth
// is the refusal.
func matchServe(t *testing.T, name string, c serveCase) {
	t.Helper()
	got, err := ServeRequests(nil, c.reqs, c.gbit, c.env, c.model, c.write, simrand.New(9))
	reqs := c.reqs
	odd := slices.IndexFunc(reqs, func(r Request) bool { return math.IsNaN(r.TimeSec) || math.IsInf(r.TimeSec, 1) })
	if len(reqs) > 0 && math.IsInf(reqs[0].TimeSec, -1) {
		odd = 0
	}
	if odd >= 0 {
		reqs = reqs[:odd]
	}
	want, wantErr := refServeRequests(nil, reqs, c.gbit, c.env, c.model, c.write, simrand.New(9))
	if odd >= 0 && wantErr == nil {
		want, wantErr = nil, fmt.Errorf("netem: request %d arrival is %g", odd, c.reqs[odd].TimeSec)
	}
	if i := slices.IndexFunc(c.env.Gbps, func(g float64) bool { return math.IsNaN(g) || math.IsInf(g, 0) }); i >= 0 {
		if refusal := fmt.Sprintf("netem: envelope bandwidth %d is %g", i, c.env.Gbps[i]); fmt.Sprint(err) != refusal {
			t.Fatalf("%s: error %v, want %s", name, err, refusal)
		}
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d latencies, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: request %d latency %v (%#x), reference %v (%#x)", name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
		if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
			t.Fatalf("%s: request %d latency is %v with a nil error", name, i, got[i])
		}
	}
}

// requestsAt returns one request per arrival time.
func requestsAt(times ...float64) []Request {
	reqs := make([]Request, len(times))
	for i, t := range times {
		reqs[i] = Request{TimeSec: t, Client: i % 3}
	}
	return reqs
}

// seededServe builds the replay a seed names: up to 40 intervals whose
// times repeat (a zero-width interval) one step in five and may start
// before or after 0, bandwidths that are zero one interval in three,
// and up to 80 arrivals, tied one in four, some before the envelope's
// first time and some past its last. One seed in eight puts a NaN or
// an infinite bandwidth into the envelope, one in sixteen a NaN arrival,
// one in sixteen a tail of +Inf arrivals and one in sixteen a head of
// -Inf arrivals, which ServeRequests must refuse; one in sixteen takes
// arrivals out of order, and one in twenty asks a non-positive volume,
// which both loops must refuse alike.
func seededServe(seed uint64) serveCase {
	src := simrand.New(seed)
	n := 1 + src.Intn(40)
	env := PathEnvelope{Times: make([]float64, n), Gbps: make([]float64, n)}
	at := src.Uniform(-5, 5)
	for i := range env.Times {
		if i > 0 && src.Intn(5) != 0 {
			at += src.Exponential(1)
		}
		env.Times[i] = at
		if src.Intn(3) != 0 {
			env.Gbps[i] = src.Uniform(0.01, 10)
		}
	}
	if src.Intn(8) == 0 {
		odd := []float64{math.NaN(), math.Inf(1)}[src.Intn(2)]
		env.Gbps[src.Intn(n)] = odd
	}
	c := serveCase{env: env, gbit: src.Uniform(0.001, 5), model: EC2VNIC(), write: 9000}
	if src.Intn(2) == 0 {
		c.model, c.write = GCEVNIC(), 65536
	}
	if src.Intn(20) == 0 {
		c.gbit = -src.Float64()
	}
	span := env.Times[n-1] - env.Times[0]
	t := env.Times[0] - src.Uniform(0, 3)
	reqs := make([]Request, src.Intn(81))
	for i := range reqs {
		if i == 0 || src.Intn(4) != 0 {
			t += src.Exponential(float64(len(reqs)) / (span + 4))
		}
		reqs[i] = Request{TimeSec: t, Client: src.Intn(3)}
	}
	if len(reqs) > 1 {
		switch src.Intn(16) {
		case 0:
			reqs[src.Intn(len(reqs))].TimeSec = math.NaN()
		case 1:
			i := 1 + src.Intn(len(reqs)-1)
			reqs[i].TimeSec = reqs[i-1].TimeSec - 1
		case 2:
			for i := src.Intn(len(reqs)); i < len(reqs); i++ {
				reqs[i].TimeSec = math.Inf(1)
			}
		case 3:
			for i := src.Intn(len(reqs)); i >= 0; i-- {
				reqs[i].TimeSec = math.Inf(-1)
			}
		}
	}
	c.reqs = reqs
	return c
}

// TestServeRequestsMatchesReference holds the cursor to the binary
// search on named envelopes and request streams, then on the seeded
// replays FuzzServeRequests starts from. A NaN or infinite bandwidth,
// a NaN or +Inf arrival and a -Inf first arrival are refused, naming
// the bandwidth or request: each would give a NaN completion or an
// infinite latency.
func TestServeRequestsMatchesReference(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	env := func(times, gbps []float64) PathEnvelope { return PathEnvelope{Times: times, Gbps: gbps} }
	ec2 := EC2VNIC()
	refusals := map[string]struct {
		c    serveCase
		want string
	}{
		"nan-bandwidth": {serveCase{env([]float64{0, 1, 2, 3}, []float64{1, 1, nan, 1}), requestsAt(0, 0.1, 0.2, 0.3, 5), 1.5, ec2, 9000},
			"netem: envelope bandwidth 2 is NaN"},
		"inf-duplicate": {serveCase{env([]float64{0, 1, 1, 2}, []float64{1, inf, 2, 1}), requestsAt(0, 0.5, 1, 3), 0.5, ec2, 9000},
			"netem: envelope bandwidth 1 is +Inf"},
		"nan-arrival": {serveCase{env([]float64{0, 1, 2, 3}, []float64{1, 2, 3, 4}), requestsAt(2.5, nan, 0.5, 1, 3), 0.2, ec2, 9000},
			"netem: request 1 arrival is NaN"},
		"nan-first-arrival": {serveCase{env([]float64{0, 1}, []float64{1, 1}), requestsAt(nan, 0.5), 0.2, ec2, 9000},
			"netem: request 0 arrival is NaN"},
		"inf-arrival": {serveCase{env([]float64{0, 1, 2}, []float64{1, 1, 1}), requestsAt(0, 0.5, inf), 0.5, ec2, 9000},
			"netem: request 2 arrival is +Inf"},
		"inf-arrivals": {serveCase{env([]float64{0, 1, 2}, []float64{1, 1, 1}), requestsAt(0, inf, inf), 0.5, ec2, 9000},
			"netem: request 1 arrival is +Inf"},
		"inf-then-nan": {serveCase{env([]float64{0, 1}, []float64{1, 1}), requestsAt(0, inf, nan), 0.5, ec2, 9000},
			"netem: request 1 arrival is +Inf"},
		"nan-then-inf": {serveCase{env([]float64{0, 1}, []float64{1, 1}), requestsAt(0, nan, inf), 0.5, ec2, 9000},
			"netem: request 1 arrival is NaN"},
		"inf-out-of-order": {serveCase{env([]float64{0, 1}, []float64{1, 0}), requestsAt(0, inf, 3), 0.5, ec2, 9000},
			"netem: request 1 arrival is +Inf"},
		"disorder-then-inf": {serveCase{env([]float64{0, 1}, []float64{1, 1}), requestsAt(2, 1, inf), 0.5, ec2, 9000},
			"netem: request 1 (1 s) precedes request 0"},
		"neg-inf-first-arrival": {serveCase{env([]float64{0, 1, 2}, []float64{1, 1, 1}), requestsAt(-inf, 0.5, 1), 0.5, ec2, 9000},
			"netem: request 0 arrival is -Inf"},
		"neg-inf-arrivals": {serveCase{env([]float64{0, 1}, []float64{1, 1}), requestsAt(-inf, -inf, inf), 0.5, ec2, 9000},
			"netem: request 0 arrival is -Inf"},
		"neg-inf-after-finite": {serveCase{env([]float64{0, 1}, []float64{1, 1}), requestsAt(0, -inf), 0.5, ec2, 9000},
			"netem: request 1 (-Inf s) precedes request 0"},
	}
	for name, r := range refusals {
		c := r.c
		got, err := ServeRequests(nil, c.reqs, c.gbit, c.env, c.model, c.write, simrand.New(9))
		if got != nil || fmt.Sprint(err) != r.want {
			t.Errorf("%s: %d latencies, error %v; want none and %s", name, len(got), err, r.want)
		}
		matchServe(t, name, c)
	}
	cases := map[string]serveCase{
		"duplicate-times": {env([]float64{0, 1, 1, 1, 2, 3}, []float64{1, 2, 0, 4, 0.5, 1}), requestsAt(0, 0.5, 1, 1, 1.5, 2, 2.5, 4), 0.7, ec2, 9000},
		"zero-intervals":  {env([]float64{0, 1, 2, 3, 4}, []float64{0, 3, 0, 0, 2}), requestsAt(0, 0.2, 1.5, 2, 2.5, 3.5), 2, ec2, 9000},
		"before-first":    {env([]float64{5, 6, 7}, []float64{1, 2, 3}), requestsAt(-3, 0, 1, 4.99, 5), 0.5, ec2, 9000},
		"past-last":       {env([]float64{0, 1, 2}, []float64{1, 0, 2}), requestsAt(1.5, 2, 10, 100, 100), 1, ec2, 9000},
		"tied":            {env([]float64{0, 0.5, 1}, []float64{4, 1, 2}), requestsAt(0.25, 0.25, 0.25, 0.75, 0.75), 0.4, ec2, 9000},
		"one-interval":    {env([]float64{2}, []float64{3}), requestsAt(0, 1, 2, 3), 1, ec2, 9000},
		"stall-past-end":  {env([]float64{0, 1, 2}, []float64{1, 1, 0}), requestsAt(0, 0.5, 1), 0.6, ec2, 9000},
		"out-of-order":    {env([]float64{0, 1}, []float64{1, 1}), requestsAt(1, 0.5), 0.2, ec2, 9000},
		"no-volume":       {env([]float64{0, 1}, []float64{1, 1}), requestsAt(1), 0, ec2, 9000},
		"no-bandwidth":    {env([]float64{0, 1}, []float64{0, 0}), requestsAt(1), 1, ec2, 9000},
	}
	for name, c := range cases {
		matchServe(t, name, c)
	}
	for seed := uint64(1); seed <= 300; seed++ {
		matchServe(t, fmt.Sprintf("seed %d", seed), seededServe(seed))
	}
}

// TestEnvelopeRejectsNaNTime: a NaN time is not ordered, so Validate
// refuses it wherever it sits.
func TestEnvelopeRejectsNaNTime(t *testing.T) {
	for _, times := range [][]float64{{math.NaN()}, {math.NaN(), 1}, {0, math.NaN()}, {0, math.NaN(), 2}} {
		env := PathEnvelope{Times: times, Gbps: make([]float64, len(times))}
		env.Gbps[0] = 1
		if err := env.Validate(); err == nil {
			t.Errorf("times %v: Validate accepted a NaN time", times)
		}
	}
}

func FuzzServeRequests(f *testing.F) {
	for seed := uint64(1); seed <= 30; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		matchServe(t, fmt.Sprintf("seed %d", seed), seededServe(seed))
	})
}
