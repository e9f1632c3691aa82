package server

// ConnPool models a bounded connection pool such as Tomcat's JDBC pool
// (size 50 in the paper's setup, Appendix A). A synchronous caller that
// cannot get a connection waits in FIFO order — while continuing to occupy
// its server thread, which is how database-side congestion backs up into
// the application tier (Section V-B).
type ConnPool struct {
	size  int
	inUse int
	// waiters are the queued callers, oldest first; unbounded, as in the
	// paper: the thread pool above bounds them.
	waiters fifo[func()]
}

// NewConnPool creates a pool with the given number of connections.
func NewConnPool(size int) *ConnPool {
	if size < 1 {
		size = 1
	}
	return &ConnPool{size: size}
}

// Acquire runs fn as soon as a connection is available — immediately and
// synchronously if the pool has a free connection, otherwise when one is
// released.
func (p *ConnPool) Acquire(fn func()) {
	if p.inUse < p.size {
		p.inUse++
		fn()
		return
	}
	p.waiters.push(fn)
}

// Release returns a connection to the pool, handing it to the oldest waiter
// if any. After a shrinking Resize the freed connection is retired instead
// of handed on, until the pool drains down to its new capacity.
func (p *ConnPool) Release() {
	if p.Waiting() > 0 && p.inUse <= p.size {
		p.waiters.pop()()
		return
	}
	if p.inUse > 0 {
		p.inUse--
	}
}

// Resize changes the pool capacity mid-run — the scenario engine's
// resize_pool event. Growing admits queued waiters (FIFO, synchronously)
// until the new capacity is reached; shrinking lets connections above the
// new capacity retire as they are released, never revoking one in use.
// Sizes below 1 are clamped to 1, matching NewConnPool.
func (p *ConnPool) Resize(size int) {
	if size < 1 {
		size = 1
	}
	p.size = size
	for p.Waiting() > 0 && p.inUse < p.size {
		p.inUse++
		p.waiters.pop()()
	}
}

// Size returns the pool capacity.
func (p *ConnPool) Size() int { return p.size }

// InUse returns the number of connections currently held.
func (p *ConnPool) InUse() int { return p.inUse }

// Waiting returns the number of callers queued for a connection.
func (p *ConnPool) Waiting() int { return p.waiters.len() }
