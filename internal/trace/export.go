package trace

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV exports the event log for external analysis, one row per
// transport event: time_s, kind, server, request_id, attempt.
func (l *Log) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "kind", "server", "request_id", "attempt"}); err != nil {
		return err
	}
	for _, e := range l.events {
		row := []string{
			strconv.FormatFloat(e.At.Seconds(), 'f', 6, 64),
			e.Kind.String(),
			e.Server,
			strconv.FormatUint(e.RequestID, 10),
			strconv.Itoa(e.Attempt),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// DropsPerWindow counts dropped packets per fixed window per server — the
// raw series behind the VLRT plots, computed from the event log rather
// than the request records.
func (l *Log) DropsPerWindow(window, horizon int64) map[string][]int {
	if window <= 0 || horizon <= 0 {
		return nil
	}
	n := int(horizon / window)
	out := make(map[string][]int)
	for _, e := range l.events {
		if e.Kind != KindDropped {
			continue
		}
		idx := int(e.At.Nanoseconds() / window)
		if idx < 0 || idx >= n {
			continue
		}
		series, ok := out[e.Server]
		if !ok {
			series = make([]int, n)
			out[e.Server] = series
		}
		series[idx]++
	}
	return out
}
