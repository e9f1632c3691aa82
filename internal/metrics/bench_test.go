package metrics

import (
	"testing"
	"time"

	"ctqosim/internal/workload"
)

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(100*time.Millisecond, 10*time.Second)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%12000) * time.Millisecond)
	}
}

func BenchmarkRecorderRecord(b *testing.B) {
	r := NewRecorder()
	req := &workload.Request{Submitted: time.Second, Completed: 2 * time.Second}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(req)
	}
}
