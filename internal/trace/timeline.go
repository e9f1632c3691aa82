package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Timeline returns every traced event of one request in time order — the
// paper's message-level timestamping, reconstructed per request. Events
// whose payload was not a workload request (RequestID 0 with no request)
// are excluded.
func (l *Log) Timeline(requestID uint64) []Event {
	var out []Event
	for _, e := range l.events {
		if e.RequestID == requestID {
			out = append(out, e)
		}
	}
	return out
}

// RequestsWithDrops returns the IDs of all requests that had at least one
// packet dropped, in first-drop order.
func (l *Log) RequestsWithDrops() []uint64 {
	seen := make(map[uint64]bool)
	var out []uint64
	for _, e := range l.events {
		if e.Kind != KindDropped || seen[e.RequestID] {
			continue
		}
		seen[e.RequestID] = true
		out = append(out, e.RequestID)
	}
	return out
}

// SlowestByAttempts returns up to n request IDs ordered by total delivery
// attempts (descending) — the requests that suffered the most
// retransmission.
func (l *Log) SlowestByAttempts(n int) []uint64 {
	attempts := make(map[uint64]int)
	for _, e := range l.events {
		if e.Attempt > attempts[e.RequestID] {
			attempts[e.RequestID] = e.Attempt
		}
	}
	ids := make([]uint64, 0, len(attempts))
	for id := range attempts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if attempts[ids[i]] != attempts[ids[j]] {
			return attempts[ids[i]] > attempts[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if n > 0 && len(ids) > n {
		ids = ids[:n]
	}
	return ids
}

// FormatTimeline renders one request's event chain as readable text:
//
//	req 1234: 15.020s dropped at steady-apache (attempt 1)
//	          18.020s delivered to steady-apache (attempt 2)
func FormatTimeline(events []Event) string {
	if len(events) == 0 {
		return "(no events)"
	}
	var b strings.Builder
	for i, e := range events {
		prefix := fmt.Sprintf("req %d:", e.RequestID)
		if i > 0 {
			prefix = strings.Repeat(" ", len(prefix))
		}
		verb := e.Kind.String()
		prep := "at"
		if e.Kind == KindDelivered {
			prep = "to"
		}
		fmt.Fprintf(&b, "%s %8v %s %s %s (attempt %d)\n",
			prefix, e.At.Round(time.Millisecond), verb, prep, e.Server, e.Attempt)
	}
	return b.String()
}
