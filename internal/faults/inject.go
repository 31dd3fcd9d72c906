package faults

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"cloudvar/internal/simrand"
)

// Error is an injected fault. Injected failures model infrastructure
// misbehaviour — exactly the class of error the resilience layer must
// retry (shard.Classify rates it transient), never the class that
// aborts a campaign.
type Error struct{ Msg string }

func (e *Error) Error() string { return e.Msg }

// Decision is what one gated interaction should suffer.
type Decision struct {
	// Delay stalls the call before it proceeds.
	Delay time.Duration
	// Err fails the call outright; nil lets it through.
	Err error
	// Torn lets the call execute but truncates its response on the way
	// back (HTTP transport only): the worker did the work — and
	// persisted it — but the coordinator reads a cut-off body.
	Torn bool
}

// Injector is a compiled fault plan: one WorkerState per worker, with
// the victims chosen by a seeded permutation. Wrap in-process workers
// with shard.InjectFaults and HTTP clients with Transport.
type Injector struct {
	plan    Plan
	victims []int
	states  []*WorkerState
}

// Injector compiles the plan against a fleet: seed derives the victim
// choice (substream "faults/<plan>", the scenario discipline) and
// workers is the fleet width. Victim count is capped at the fleet
// width.
func (p Plan) Injector(seed uint64, workers int) (*Injector, error) {
	built, err := Build(p.Name, p.Params)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		return nil, fmt.Errorf("faults: injector needs a positive worker count, got %d", workers)
	}
	src := simrand.New(seed).Substream("faults/" + built.Name)
	perm := src.Perm(workers)
	v := int(built.Params["victims"])
	if v > workers {
		v = workers
	}
	victims := append([]int(nil), perm[:v]...)
	sort.Ints(victims)
	b := behavior{
		kind:   built.Name,
		at:     int(built.Params["at"]),
		count:  int(built.Params["count"]),
		probes: int(built.Params["probes"]),
		delay:  time.Duration(built.Params["delayMs"] * float64(time.Millisecond)),
	}
	states := make([]*WorkerState, workers)
	for i := range states {
		states[i] = &WorkerState{}
	}
	for _, w := range victims {
		states[w].b = b
	}
	return &Injector{plan: built, victims: victims, states: states}, nil
}

// Victims returns the afflicted worker indexes, sorted.
func (in *Injector) Victims() []int { return append([]int(nil), in.victims...) }

// State returns worker i's fault schedule.
func (in *Injector) State(i int) *WorkerState { return in.states[i] }

// behavior is one victim's compiled schedule; the zero value (kind
// "") is inert, which is every non-victim.
type behavior struct {
	kind   string
	at     int
	count  int
	probes int
	delay  time.Duration
}

// WorkerState is one worker's position in its fault schedule. Safe
// for concurrent use; both NextCall and Health advance the single
// event counter the windows are measured over.
type WorkerState struct {
	mu     sync.Mutex
	b      behavior
	events int
	down   bool // crash-restart: fault has fired, not yet healed
	probes int  // crash-restart: health probes since going down
	healed bool // crash-restart: restart completed
}

// NextCall gates one execute interaction (an in-process Execute or
// one HTTP request) and advances the event counter.
func (s *WorkerState) NextCall() Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	event := s.events
	s.events++
	switch s.b.kind {
	case "crash":
		if event >= s.b.at {
			return Decision{Err: &Error{Msg: fmt.Sprintf("faults: injected crash (event %d)", event)}}
		}
	case "crash-restart":
		if s.healed {
			return Decision{}
		}
		if !s.down && event >= s.b.at {
			s.down = true
		}
		if s.down {
			return Decision{Err: &Error{Msg: fmt.Sprintf("faults: injected crash awaiting restart (event %d)", event)}}
		}
	case "stall":
		if event >= s.b.at && event < s.b.at+s.b.count {
			return Decision{Delay: s.b.delay}
		}
	case "error-burst":
		if event >= s.b.at && event < s.b.at+s.b.count {
			return Decision{Err: &Error{Msg: fmt.Sprintf("faults: injected transport error (event %d)", event)}}
		}
	case "torn-response":
		if event >= s.b.at && event < s.b.at+s.b.count {
			return Decision{Torn: true}
		}
	case "partition":
		if event >= s.b.at && event < s.b.at+s.b.count {
			return Decision{Err: &Error{Msg: fmt.Sprintf("faults: injected partition (event %d)", event)}}
		}
	}
	return Decision{}
}

// Health gates one health probe and advances the event counter. A
// nil return is a healthy worker. Probes are how a crash-restart
// heals (after `probes` of them the worker is back) and how a
// partition window burns down without execute traffic.
func (s *WorkerState) Health() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	event := s.events
	s.events++
	switch s.b.kind {
	case "crash":
		if event >= s.b.at {
			return &Error{Msg: fmt.Sprintf("faults: injected crash (event %d)", event)}
		}
	case "crash-restart":
		if s.healed {
			return nil
		}
		if !s.down && event >= s.b.at {
			s.down = true
		}
		if s.down {
			s.probes++
			if s.probes >= s.b.probes {
				s.healed = true
				s.down = false
				return nil
			}
			return &Error{Msg: fmt.Sprintf("faults: injected crash awaiting restart (probe %d of %d)", s.probes, s.b.probes)}
		}
	case "partition":
		if event >= s.b.at && event < s.b.at+s.b.count {
			return &Error{Msg: fmt.Sprintf("faults: injected partition (event %d)", event)}
		}
	}
	return nil
}

// tornBudget is how many response-body bytes survive a torn response
// — enough to reach into a frame header or a JSON envelope, never a
// whole cell; the read fails after them either way, so a torn answer
// never decodes.
const tornBudget = 16

// Transport wraps an http.RoundTripper with worker i's fault
// schedule; base nil means http.DefaultTransport. Health-endpoint
// requests (GET /v1/health, /healthz) are gated by Health, everything
// else by NextCall — so breaker probes and execute traffic share one
// event clock.
func (in *Injector) Transport(i int, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultTransport{ws: in.states[i], base: base}
}

type faultTransport struct {
	ws   *WorkerState
	base http.RoundTripper
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if p := req.URL.Path; p == "/v1/health" || p == "/healthz" {
		if err := t.ws.Health(); err != nil {
			return nil, err
		}
		return t.base.RoundTrip(req)
	}
	d := t.ws.NextCall()
	if d.Err != nil {
		return nil, d.Err
	}
	if d.Delay > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(d.Delay):
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if d.Torn {
		resp.Body = &tornBody{inner: resp.Body, left: tornBudget}
		resp.ContentLength = -1
	}
	return resp, nil
}

// tornBody serves at most `left` bytes of the real response, then
// fails the read the way a connection cut mid-body does.
type tornBody struct {
	inner io.ReadCloser
	left  int
}

func (b *tornBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > b.left {
		p = p[:b.left]
	}
	n, err := b.inner.Read(p)
	b.left -= n
	if err == io.EOF {
		// The real body ended inside the budget; a torn response still
		// must not parse, so the cut is reported either way.
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *tornBody) Close() error { return b.inner.Close() }
