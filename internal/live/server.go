package live

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ctqosim/internal/span"
)

// Stats counts a live server's outcomes. All fields are atomic.
type Stats struct {
	accepted  atomic.Int64
	completed atomic.Int64
	dropped   atomic.Int64
	failed    atomic.Int64
}

// Accepted returns admitted requests.
func (s *Stats) Accepted() int64 { return s.accepted.Load() }

// Completed returns successfully answered requests.
func (s *Stats) Completed() int64 { return s.completed.Load() }

// Dropped returns refused (over-limit) connections.
func (s *Stats) Dropped() int64 { return s.dropped.Load() }

// Failed returns requests whose downstream call failed permanently.
func (s *Stats) Failed() int64 { return s.failed.Load() }

// Config parameterizes a live server tier.
type Config struct {
	// Addr is the listen address, e.g. "127.0.0.1:0".
	Addr string
	// Sync selects the architecture: true for thread-per-request with a
	// bounded queue, false for event-driven with a lightweight queue.
	Sync bool
	// Workers is the thread pool (sync) or event-loop worker count
	// (async).
	Workers int
	// Queue bounds the waiting requests: the TCP-backlog analogue for a
	// sync tier (MaxSysQDepth = Workers+Queue), LiteQDepth for an async
	// tier.
	Queue int
	// Downstream, if non-empty, is the next tier's address.
	Downstream string
	// RTO is the application-level retransmission timeout toward the
	// downstream tier; zero means the paper's kernel's, 3s
	// (simnet.RHEL6).
	RTO time.Duration
	// MaxAttempts bounds downstream attempts; zero means the paper's
	// kernel's, 5 (simnet.RHEL6).
	MaxAttempts int
	// IOTimeout caps each read/write; zero means 10s.
	IOTimeout time.Duration
	// Name labels this tier in recorded spans; empty means the listen
	// address.
	Name string
	// DownstreamName labels the next tier in recorded spans; empty means
	// the Downstream address.
	DownstreamName string
	// Collector, when non-nil, receives span intervals (accept-queue wait,
	// service, and — via the downstream client — retransmission gaps) for
	// every handled request. Tiers sharing a process share one collector.
	Collector *Collector
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Queue < 0 {
		c.Queue = 0
	}
	// The tier's downstream calls go through a Client, whose defaults
	// these are.
	d := Client{RTO: c.RTO, MaxAttempts: c.MaxAttempts, IOTimeout: c.IOTimeout}.withDefaults()
	c.RTO, c.MaxAttempts, c.IOTimeout = d.RTO, d.MaxAttempts, d.IOTimeout
	return c
}

// Server is one live tier. Create with Serve, stop with Close.
type Server struct {
	cfg      Config
	listener net.Listener
	stats    Stats

	// admission: held (in service + queued) for sync; in-flight for async.
	held      atomic.Int64
	work      chan workItem
	closing   atomic.Bool
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// workItem carries an admitted connection plus its accept timestamp, so
// the worker that picks it up can record the queue-wait interval.
type workItem struct {
	conn     net.Conn
	accepted time.Duration
}

// Serve starts a tier listening on cfg.Addr and returns once the listener
// is ready. Close releases it.
func Serve(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		listener: ln,
		work:     make(chan workItem, cfg.Workers+cfg.Queue),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Stats exposes the server's counters.
func (s *Server) Stats() *Stats { return &s.stats }

// Depth returns the number of requests currently held by the tier.
func (s *Server) Depth() int { return int(s.held.Load()) }

// MaxSysQDepth returns the admission bound.
func (s *Server) MaxSysQDepth() int { return s.cfg.Workers + s.cfg.Queue }

// name returns the span label for this tier.
func (s *Server) name() string {
	if s.cfg.Name != "" {
		return s.cfg.Name
	}
	return s.listener.Addr().String()
}

// Close stops accepting, waits for in-flight work to finish, and releases
// the listener. Once it returns, the Stats counters are final. Calling it
// again is a no-op that returns the first call's error.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		err := s.listener.Close()
		close(s.work)
		s.wg.Wait()
		if !errors.Is(err, net.ErrClosed) {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// acceptLoop admits connections up to the admission bound and drops the
// rest by closing them immediately — the application-level enactment of a
// TCP-backlog overflow.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if s.closing.Load() {
			_ = conn.Close()
			return
		}
		if int(s.held.Load()) >= s.MaxSysQDepth() {
			s.stats.dropped.Add(1)
			_ = conn.Close()
			continue
		}
		s.held.Add(1)
		s.stats.accepted.Add(1)
		select {
		case s.work <- workItem{conn: conn, accepted: s.cfg.Collector.Clock()}:
		default:
			// The channel mirrors the admission bound; reaching here means
			// a race lost against another accept — treat as a drop.
			s.held.Add(-1)
			s.stats.accepted.Add(-1)
			s.stats.dropped.Add(1)
			_ = conn.Close()
		}
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for item := range s.work {
		s.handle(item)
	}
}

// handle serves one connection: read, sleep the service time, call the
// next tier, reply.
//
// The architectural difference lives here. A synchronous tier performs the
// downstream call on the worker itself, holding it for the full round trip
// (including retransmission waits) — the RPC coupling. An asynchronous
// tier hands the downstream call and the reply to a continuation goroutine
// and returns the worker to the pool immediately — the Fig. 14
// doGet/eventHandler split; the request stays admitted (held) until the
// continuation replies.
func (s *Server) handle(item workItem) {
	conn, col := item.conn, s.cfg.Collector
	picked := col.Clock()
	release := func() { s.held.Add(-1) }

	fail := func() {
		s.stats.failed.Add(1)
		_ = conn.Close()
		release()
	}
	if err := conn.SetDeadline(time.Now().Add(s.cfg.IOTimeout)); err != nil {
		fail()
		return
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		fail()
		return
	}
	req, err := parseRequest(line)
	if err != nil {
		fail()
		return
	}
	col.Record(req.ID, span.KindQueueWait, s.name(), item.accepted, picked, "")

	svcStart := col.Clock()
	time.Sleep(req.Service)

	// recordService closes this tier's service interval. For sync it runs
	// just before the reply (the span covers the whole thread-held visit,
	// so the downstream call nests inside it); for async it runs at the
	// worker hand-off (the span covers one worker-held burst only).
	recordService := func() {
		col.Record(req.ID, span.KindService, s.name(), svcStart, col.Clock(), "")
	}

	finish := func() {
		if s.cfg.Downstream != "" && len(req.Downstream) > 0 {
			next := Request{
				ID:         req.ID,
				Service:    req.Downstream[0],
				Downstream: req.Downstream[1:],
			}
			client := &Client{
				Target:      s.cfg.Downstream,
				RTO:         s.cfg.RTO,
				MaxAttempts: s.cfg.MaxAttempts,
				IOTimeout:   s.cfg.IOTimeout,
				Name:        s.cfg.DownstreamName,
				Collector:   col,
			}
			if _, err := client.Do(next); err != nil {
				// No reply: the upstream caller times out or retries.
				if s.cfg.Sync {
					recordService()
				}
				s.stats.failed.Add(1)
				_ = conn.Close()
				release()
				return
			}
		}
		if s.cfg.Sync {
			recordService()
		}
		if _, err := conn.Write([]byte(okReply)); err != nil {
			s.stats.failed.Add(1)
		} else {
			s.stats.completed.Add(1)
		}
		_ = conn.Close()
		release()
	}

	if s.cfg.Sync {
		finish()
		return
	}
	// Async: free the worker; the continuation carries the request.
	recordService()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		finish()
	}()
}
