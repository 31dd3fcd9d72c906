// Package trace provides the time-series plumbing for the measurement
// campaigns of Section 3: fixed-interval summarised series (the
// paper's 10-second bins), performability records (bandwidth,
// retransmissions, CPU), transfer-regime schedules (full-speed, 10-30,
// 5-30), and CSV/JSON encoders for releasing raw data the way the
// paper's Zenodo repository does.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"cloudvar/internal/stats"
)

// Point is one summarised measurement interval.
type Point struct {
	// TimeSec is the interval start, seconds from campaign start.
	TimeSec float64 `json:"time_sec"`
	// BandwidthGbps is the mean achieved bandwidth over the interval.
	BandwidthGbps float64 `json:"bandwidth_gbps"`
	// Retransmissions counts retransmitted segments in the interval.
	Retransmissions int `json:"retransmissions"`
	// RTTms is the mean application-observed round-trip time.
	RTTms float64 `json:"rtt_ms"`
	// CPUFrac is the sender CPU utilisation (0..1).
	CPUFrac float64 `json:"cpu_frac"`
}

// Series is an ordered sequence of measurement points with a fixed
// nominal interval.
type Series struct {
	// IntervalSec is the summarisation window (the paper uses 10 s).
	IntervalSec float64 `json:"interval_sec"`
	// Label identifies the series (e.g. "ec2/full-speed").
	Label  string  `json:"label"`
	Points []Point `json:"points"`
}

// NewSeries returns an empty series with the given label and interval.
func NewSeries(label string, intervalSec float64) *Series {
	return &Series{Label: label, IntervalSec: intervalSec}
}

// Append adds a point; times must be non-decreasing, and a NaN time,
// which no comparison orders, is refused.
func (s *Series) Append(p Point) error {
	last := math.Inf(-1)
	if n := len(s.Points); n > 0 {
		last = s.Points[n-1].TimeSec
	}
	if !(p.TimeSec >= last) {
		if math.IsNaN(p.TimeSec) {
			return fmt.Errorf("trace: point %d has a NaN time", len(s.Points))
		}
		return fmt.Errorf("trace: point at %g s precedes last point at %g s", p.TimeSec, last)
	}
	s.Points = append(s.Points, p)
	return nil
}

// Bandwidths returns the bandwidth column.
func (s *Series) Bandwidths() []float64 {
	return s.AppendBandwidths(make([]float64, 0, len(s.Points)))
}

// AppendBandwidths appends the bandwidth column to dst and returns it
// — the allocation-free variant for callers holding a reusable buffer
// (the fleet's per-worker scratch). dst grows at most once.
func (s *Series) AppendBandwidths(dst []float64) []float64 {
	if n := len(dst) + len(s.Points); n > cap(dst) {
		dst = append(make([]float64, 0, n), dst...)
	}
	for _, p := range s.Points {
		dst = append(dst, p.BandwidthGbps)
	}
	return dst
}

// RetransmissionTotal sums retransmissions over the series.
func (s *Series) RetransmissionTotal() int {
	total := 0
	for _, p := range s.Points {
		total += p.Retransmissions
	}
	return total
}

// Summary returns descriptive statistics of the bandwidth column.
func (s *Series) Summary() stats.Summary { return stats.Summarize(s.Bandwidths()) }

// CumulativeTrafficTB integrates bandwidth over time and returns the
// running total in terabytes at each point — Figure 10's y-axis.
func (s *Series) CumulativeTrafficTB() []float64 {
	out := make([]float64, len(s.Points))
	total := 0.0
	for i, p := range s.Points {
		// Gbps × s = Gbit; /8 = GB; /1000 = TB.
		total += p.BandwidthGbps * s.IntervalSec / 8 / 1000
		out[i] = total
	}
	return out
}

// MaxStepRatio returns the largest relative change between consecutive
// bandwidth samples, the "how rapidly does bandwidth vary?" metric of
// Section 3.1 (HPCCloud: up to 33%, GCE 5-30: up to 114%).
func (s *Series) MaxStepRatio() float64 {
	worst := 0.0
	for i := 1; i < len(s.Points); i++ {
		prev := s.Points[i-1].BandwidthGbps
		if prev == 0 {
			continue
		}
		step := math.Abs(s.Points[i].BandwidthGbps-prev) / prev
		if step > worst {
			worst = step
		}
	}
	return worst
}

// WriteCSV serialises the series in the column order of the released
// datasets: time_sec, bandwidth_gbps, retransmissions, rtt_ms, cpu_frac.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_sec", "bandwidth_gbps", "retransmissions", "rtt_ms", "cpu_frac"}); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	for _, p := range s.Points {
		rec := []string{
			strconv.FormatFloat(p.TimeSec, 'f', -1, 64),
			strconv.FormatFloat(p.BandwidthGbps, 'f', -1, 64),
			strconv.Itoa(p.Retransmissions),
			strconv.FormatFloat(p.RTTms, 'f', -1, 64),
			strconv.FormatFloat(p.CPUFrac, 'f', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: writing CSV record: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a series previously written by WriteCSV.
func ReadCSV(r io.Reader, label string, intervalSec float64) (*Series, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	s := NewSeries(label, intervalSec)
	for i, rec := range records[1:] { // skip header
		if len(rec) != 5 {
			return nil, fmt.Errorf("trace: row %d has %d fields, want 5", i+1, len(rec))
		}
		var p Point
		if p.TimeSec, err = strconv.ParseFloat(rec[0], 64); err != nil {
			return nil, fmt.Errorf("trace: row %d time: %w", i+1, err)
		}
		if p.BandwidthGbps, err = strconv.ParseFloat(rec[1], 64); err != nil {
			return nil, fmt.Errorf("trace: row %d bandwidth: %w", i+1, err)
		}
		if p.Retransmissions, err = strconv.Atoi(rec[2]); err != nil {
			return nil, fmt.Errorf("trace: row %d retransmissions: %w", i+1, err)
		}
		if p.RTTms, err = strconv.ParseFloat(rec[3], 64); err != nil {
			return nil, fmt.Errorf("trace: row %d rtt: %w", i+1, err)
		}
		if p.CPUFrac, err = strconv.ParseFloat(rec[4], 64); err != nil {
			return nil, fmt.Errorf("trace: row %d cpu: %w", i+1, err)
		}
		if err := s.Append(p); err != nil {
			return nil, err
		}
	}
	return s, nil
}
