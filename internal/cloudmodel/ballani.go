// Package cloudmodel encodes the cloud-specific network behaviour the
// paper measured or cited: the Ballani et al. bandwidth distributions
// for clouds A-H (Figure 2), shaper models for Amazon EC2 (token
// bucket), Google Cloud (per-core QoS with flow warm-up) and HPCCloud
// (unshaped stochastic contention), the Table 3 instance catalog, and
// the campaign runner that regenerates the Section 3 measurement
// figures.
package cloudmodel

import (
	"fmt"

	"cloudvar/internal/simrand"
)

// BallaniCloud is one of the eight real-world cloud bandwidth
// distributions from Ballani et al. [7], reproduced in the paper's
// Figure 2 as box-and-whisker plots of the 1st, 25th, 50th, 75th and
// 99th percentiles (in Mb/s). The Section 2.1 emulation samples
// uniformly from these distributions every 5 or 50 seconds.
type BallaniCloud struct {
	Name string
	// PercentilesMbps holds the values at the 1st, 25th, 50th, 75th
	// and 99th percentiles.
	PercentilesMbps [5]float64
}

// ballaniProbs are the cumulative probabilities of the five knots.
var ballaniProbs = []float64{0.01, 0.25, 0.50, 0.75, 0.99}

// BallaniClouds returns the A-H catalog. Values are read off
// Figure 2; they range from tight distributions near the top of the
// 1 Gb/s links (B, E) to extremely wide ones (C, F, G) whose
// inter-quartile ranges span hundreds of Mb/s — the clouds for which
// the paper demonstrates that 3-run medians are usually wrong.
func BallaniClouds() []BallaniCloud {
	return []BallaniCloud{
		{Name: "A", PercentilesMbps: [5]float64{390, 550, 620, 680, 780}},
		{Name: "B", PercentilesMbps: [5]float64{500, 600, 630, 660, 710}},
		{Name: "C", PercentilesMbps: [5]float64{100, 300, 450, 600, 850}},
		{Name: "D", PercentilesMbps: [5]float64{250, 480, 550, 610, 700}},
		{Name: "E", PercentilesMbps: [5]float64{620, 700, 750, 800, 900}},
		{Name: "F", PercentilesMbps: [5]float64{50, 150, 300, 500, 900}},
		{Name: "G", PercentilesMbps: [5]float64{100, 200, 350, 550, 800}},
		{Name: "H", PercentilesMbps: [5]float64{300, 450, 500, 550, 650}},
	}
}

// BallaniCloudByName looks up one of the A-H distributions.
func BallaniCloudByName(name string) (BallaniCloud, error) {
	for _, c := range BallaniClouds() {
		if c.Name == name {
			return c, nil
		}
	}
	return BallaniCloud{}, fmt.Errorf("cloudmodel: unknown Ballani cloud %q (want A-H)", name)
}

// DistGbps returns the distribution rescaled to Gb/s, the unit the
// emulator works in.
func (c BallaniCloud) DistGbps() *simrand.QuantileDist {
	values := make([]float64, len(c.PercentilesMbps))
	for i, v := range c.PercentilesMbps {
		values[i] = v / 1000
	}
	return simrand.MustQuantileDist(ballaniProbs, values)
}

// IQRMbps returns the interquartile range, the width statistic the
// paper's Figure 3 outcome correlates with.
func (c BallaniCloud) IQRMbps() float64 {
	return c.PercentilesMbps[3] - c.PercentilesMbps[1]
}
