package netem

import (
	"fmt"
	"math"

	"cloudvar/internal/simrand"
)

// VNICModel captures the virtual-NIC implementation differences the
// paper found between EC2 and GCE (Section 3.3, "Virtual NIC
// Implementations"):
//
//   - EC2 advertises a 9000-byte jumbo-frame MTU; a single "packet"
//     handed to the virtual device tops out at 9 KB.
//   - GCE advertises a 1500-byte MTU but enables TCP Segmentation
//     Offloading, so the device accepts "packets" as large as 64 KB,
//     segmented below the virtual NIC.
//
// Both techniques amortise per-packet overhead, but they interact
// differently with the application's write() size: in Linux the
// "packet" passed to the virtual NIC tends to equal the socket write
// (up to the cap), so large writes on GCE produce huge device-level
// packets whose serialisation inflates perceived RTT and whose bursts
// overflow the bottom-half queue, causing retransmissions (Figure 12).
//
// The latency model is a queue of in-flight device packets: perceived
// RTT = base RTT + (queued bytes × 8) / current line rate. In normal
// operation the queue holds NormalQueuePackets packets of the
// effective size (TCP keeps it shallow); when an EC2-style throttle
// engages, the device drains slower than the application writes and
// the queue fills to DriverQueueBytes — which is how a sub-millisecond
// RTT turns into tens of milliseconds (Figure 7, bottom).
type VNICModel struct {
	Name string
	// MTUBytes is the largest on-wire frame the vNIC advertises.
	MTUBytes int
	// TSOMaxBytes, when non-zero, is the largest "packet" the device
	// accepts from the driver (GCE: 65536).
	TSOMaxBytes int
	// BaseRTTms is the unloaded round-trip time.
	BaseRTTms float64
	// RTTJitterFrac is the lognormal sigma of per-packet jitter.
	RTTJitterFrac float64
	// NormalQueuePackets is the typical bottom-half queue occupancy,
	// in packets, when the sender is not throttled.
	NormalQueuePackets int
	// DriverQueueBytes is the full bottom-half queue, reached when
	// the device drains slower than the sender writes (throttled).
	DriverQueueBytes int
	// Retransmission probability per device packet:
	// base + slope × max(0, effectivePacket - knee).
	RetransBaseProb     float64
	RetransKneeBytes    int
	RetransSlopePerByte float64
}

// EC2VNIC returns the Amazon-style model: jumbo frames, no TSO
// inflation, sub-millisecond baseline, huge queue growth under
// throttling, negligible retransmissions.
func EC2VNIC() VNICModel {
	return VNICModel{
		Name:               "ec2-ena",
		MTUBytes:           9000,
		BaseRTTms:          0.15,
		RTTJitterFrac:      0.25,
		NormalQueuePackets: 8,
		DriverQueueBytes:   2_500_000,
		RetransBaseProb:    2e-6,
	}
}

// GCEVNIC returns the Google-style model: 1500-byte MTU with TSO up to
// 64 KB, millisecond baseline, and write-size-dependent
// retransmissions (near zero at 9 KB writes, ~2% of segments at the
// 128 KB default — Figure 9's hundreds of thousands per week).
func GCEVNIC() VNICModel {
	return VNICModel{
		Name:                "gce-virtio",
		MTUBytes:            1500,
		TSOMaxBytes:         65536,
		BaseRTTms:           1.8,
		RTTJitterFrac:       0.35,
		NormalQueuePackets:  48,
		DriverQueueBytes:    4_000_000,
		RetransBaseProb:     1e-5,
		RetransKneeBytes:    16384,
		RetransSlopePerByte: 4.2e-7,
	}
}

// Validate reports whether the model is self-consistent.
func (m VNICModel) Validate() error {
	switch {
	case m.MTUBytes <= 0:
		return fmt.Errorf("netem: vNIC %q: non-positive MTU", m.Name)
	case m.TSOMaxBytes < 0:
		return fmt.Errorf("netem: vNIC %q: negative TSO max", m.Name)
	case m.TSOMaxBytes > 0 && m.TSOMaxBytes < m.MTUBytes:
		return fmt.Errorf("netem: vNIC %q: TSO max below MTU", m.Name)
	case m.BaseRTTms <= 0:
		return fmt.Errorf("netem: vNIC %q: non-positive base RTT", m.Name)
	case m.NormalQueuePackets <= 0:
		return fmt.Errorf("netem: vNIC %q: non-positive queue depth", m.Name)
	case m.DriverQueueBytes <= 0:
		return fmt.Errorf("netem: vNIC %q: non-positive driver queue", m.Name)
	}
	return nil
}

// EffectivePacketBytes returns the size of the "packet" the virtual
// device sees for an application write of the given size: capped at
// the TSO maximum when TSO is enabled, else at the MTU.
func (m VNICModel) EffectivePacketBytes(writeBytes int) int {
	if writeBytes <= 0 {
		return 0
	}
	cap := m.MTUBytes
	if m.TSOMaxBytes > 0 {
		cap = m.TSOMaxBytes
	}
	if writeBytes > cap {
		return cap
	}
	return writeBytes
}

// LatencyMs returns the mean perceived RTT for a stream of writes of
// the given size at the given device line rate. throttled selects the
// full-queue regime.
func (m VNICModel) LatencyMs(writeBytes int, rateGbps float64, throttled bool) float64 {
	return queueLatencyMs(m.BaseRTTms, m.queuedBytes(writeBytes, throttled), rateGbps)
}

// queuedBytes returns the device queue behind a stream of writes of
// the given size: NormalQueuePackets effective packets, or the full
// driver queue when throttled.
func (m VNICModel) queuedBytes(writeBytes int, throttled bool) float64 {
	if throttled {
		return float64(m.DriverQueueBytes)
	}
	return float64(m.NormalQueuePackets * m.EffectivePacketBytes(writeBytes))
}

// queueLatencyMs is the latency model behind LatencyMs: the base RTT
// plus the time queuedBytes take to drain at rateGbps, +Inf when
// nothing drains. Paths that draw many RTTs at one write size work out
// queuedBytes once and call this per rate, so they never copy the
// model.
func queueLatencyMs(baseRTTms, queuedBytes, rateGbps float64) float64 {
	if rateGbps <= 0 {
		return math.Inf(1)
	}
	return baseRTTms + queuedBytes*8/(rateGbps*1e9)*1e3
}

// jitterRTT draws one per-packet RTT with lognormal jitter of sigma,
// with unit median, around a model mean from queueLatencyMs. An
// infinite mean (a path that moves nothing) and a model without jitter
// draw nothing and return the mean.
func jitterRTT(src *simrand.Source, mean, sigma float64) float64 {
	if math.IsInf(mean, 1) || sigma <= 0 {
		return mean
	}
	return mean * src.LogNormal(0, sigma)
}

// RetransProb returns the per-device-packet retransmission
// probability for the given write size.
func (m VNICModel) RetransProb(writeBytes int) float64 {
	pkt := m.EffectivePacketBytes(writeBytes)
	p := m.RetransBaseProb
	if m.RetransSlopePerByte > 0 && pkt > m.RetransKneeBytes {
		p += m.RetransSlopePerByte * float64(pkt-m.RetransKneeBytes)
	}
	if p > 1 {
		p = 1
	}
	return p
}

// packetsFor returns how many device packets of pktBytes (an
// EffectivePacketBytes) carry the given volume (Gbit).
func packetsFor(gbit float64, pktBytes int) int {
	if pktBytes == 0 || gbit <= 0 {
		return 0
	}
	bytes := gbit * 1e9 / 8
	return int(math.Ceil(bytes / float64(pktBytes)))
}
