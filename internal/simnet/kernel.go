package simnet

import "time"

// KernelProfile bundles the TCP parameters a kernel version implies: the
// retransmission behaviour and the default accept-queue (backlog) size.
// The paper's testbed runs RHEL 6 (kernel 2.6.32), whose 3-second SYN
// retransmission timer is what places the latency clusters at 3/6/9s;
// later kernels use a 1-second initial timer with exponential backoff,
// which moves — but does not remove — the clusters. No field has a zero
// default: build a variant by copying a profile and changing the fields
// it varies.
type KernelProfile struct {
	// Name identifies the profile.
	Name string
	// RTO is the (initial) retransmission timeout.
	RTO time.Duration
	// Backoff selects exponential doubling of the timeout per retry.
	Backoff bool
	// MaxAttempts bounds delivery attempts (1 + retries).
	MaxAttempts int
	// Backlog is the default accept-queue size.
	Backlog int
}

// Kernel profiles.
var (
	// RHEL6 is the paper's kernel (2.6.32): fixed 3-second SYN
	// retransmission, backlog 128. Five attempts put the worst surviving
	// response past the 9-second cluster that Fig. 1 shows. Every new
	// Transport starts with it.
	RHEL6 = KernelProfile{
		Name:        "rhel6-2.6.32",
		RTO:         3 * time.Second,
		MaxAttempts: 5,
		Backlog:     128,
	}
	// ModernLinux approximates current kernels: 1-second initial SYN
	// timer with exponential backoff (1, 2, 4, 8…), larger somaxconn.
	ModernLinux = KernelProfile{
		Name:        "modern-linux",
		RTO:         time.Second,
		Backoff:     true,
		MaxAttempts: 6,
		Backlog:     4096,
	}
)

// Apply configures the transport with the profile's retransmission
// parameters. The backlog applies to server admission and is consumed by
// topology builders, not the transport.
func (k KernelProfile) Apply(t *Transport) {
	t.RTO = k.RTO
	t.Backoff = k.Backoff
	t.MaxAttempts = k.MaxAttempts
}
