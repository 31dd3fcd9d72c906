package workload

// Trace replay: a recorded arrival stream is a one-column CSV
// (time_sec), so a stream captured from a real system can be replayed
// verbatim as a Trace client. The
// expspec layer inlines trace files into the spec document at decode
// time, keeping spec identity content-addressed.

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// ReadTraceCSV replays a trace recorded as a time_sec column: arrival
// times in seconds, which must be finite, non-negative and
// non-decreasing.
func ReadTraceCSV(r io.Reader) ([]float64, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	if len(records[0]) != 1 || records[0][0] != "time_sec" {
		return nil, fmt.Errorf("workload: trace header %v, want [time_sec]", records[0])
	}
	out := make([]float64, 0, len(records)-1)
	for i, rec := range records[1:] {
		if len(rec) != 1 {
			return nil, fmt.Errorf("workload: trace row %d has %d fields, want 1", i+1, len(rec))
		}
		t, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace row %d: %w", i+1, err)
		}
		out = append(out, t)
	}
	// Reuse the arrival validator so a corrupt trace is rejected with
	// the same rules a spec document enforces.
	if err := (Arrival{Process: Trace, Times: out}).Validate(); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return out, nil
}
