package live

import (
	"fmt"
	"net"
	"time"

	"ctqosim/internal/simnet"
	"ctqosim/internal/span"
)

// Client performs request/response exchanges against a live tier with
// application-level retransmission: a refused or reset connection (the
// server's "drop") is retried after RTO, up to MaxAttempts — the enacted
// version of the kernel's SYN retransmission.
type Client struct {
	// Target is the tier's address.
	Target string
	// RTO is the retry delay; zero means the paper's kernel's, 3s
	// (simnet.RHEL6).
	RTO time.Duration
	// MaxAttempts bounds total attempts; zero means the paper's kernel's,
	// 5 (simnet.RHEL6).
	MaxAttempts int
	// IOTimeout caps each dial/read/write; zero means 10s.
	IOTimeout time.Duration
	// Name labels the target tier in recorded spans; empty means Target.
	Name string
	// Collector, when non-nil, receives the whole exchange as a downstream
	// span plus one retransmission-gap span per RTO wait.
	Collector *Collector
}

func (c *Client) name() string {
	if c.Name != "" {
		return c.Name
	}
	return c.Target
}

// withDefaults fills the zero retransmission and I/O settings. It is the
// one copy of their defaults: Config.withDefaults takes a tier's from it.
func (c Client) withDefaults() Client {
	if c.RTO <= 0 {
		c.RTO = simnet.RHEL6.RTO
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = simnet.RHEL6.MaxAttempts
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 10 * time.Second
	}
	return c
}

// Do performs one exchange, retrying dropped attempts. It returns the
// number of attempts made and the first nil or final non-nil error.
func (c *Client) Do(req Request) (attempts int, err error) {
	d := c.withDefaults()
	col := c.Collector
	callStart := col.Clock()
	defer func() {
		detail := ""
		if err != nil {
			detail = "gave up"
		}
		col.Record(req.ID, span.KindDownstream, c.name(), callStart, col.Clock(), detail)
	}()
	for attempts = 1; ; attempts++ {
		req.Attempt = attempts
		err = d.once(req)
		if err == nil {
			return attempts, nil
		}
		if attempts >= d.MaxAttempts {
			return attempts, fmt.Errorf("live: gave up after %d attempts: %w", attempts, err)
		}
		gap := col.Clock()
		time.Sleep(d.RTO)
		if col != nil {
			col.Record(req.ID, span.KindRetransmit, c.name(), gap, col.Clock(),
				fmt.Sprintf("attempt %d dropped by %s; waited RTO", attempts, c.name()))
		}
	}
}

// once makes one attempt. c has its defaults filled.
func (c *Client) once(req Request) error {
	conn, err := net.DialTimeout("tcp", c.Target, c.IOTimeout)
	if err != nil {
		return fmt.Errorf("live: dial %s: %w", c.Target, err)
	}
	defer conn.Close()
	return exchange(conn, req, c.IOTimeout)
}

// Outcome is one client request's result in a load run.
type Outcome struct {
	// ID echoes the request.
	ID uint64
	// Latency is the end-to-end time including retries.
	Latency time.Duration
	// Attempts counts delivery attempts on the first hop.
	Attempts int
	// Err is non-nil if the request never completed.
	Err error
}

// RunLoad fires n concurrent requests at the target and collects all
// outcomes. Each request's chain sleeps the given per-tier service times.
func RunLoad(client Client, n int, services []time.Duration) []Outcome {
	if len(services) == 0 {
		services = []time.Duration{0}
	}
	results := make([]Outcome, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			req := Request{
				ID:         uint64(i),
				Service:    services[0],
				Downstream: services[1:],
			}
			rootStart := client.Collector.Clock()
			start := time.Now()
			attempts, err := client.Do(req)
			client.Collector.Record(req.ID, span.KindRequest, "client",
				rootStart, client.Collector.Clock(), "")
			results[i] = Outcome{
				ID:       uint64(i),
				Latency:  time.Since(start),
				Attempts: attempts,
				Err:      err,
			}
			done <- i
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	return results
}
