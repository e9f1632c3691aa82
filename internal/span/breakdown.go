package span

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// vlrtThreshold is the paper's Very Long Response Time criterion (kept
// local so the package stays dependency-free).
const vlrtThreshold = 3 * time.Second

// TierKind keys a breakdown category: where the time went and at which
// server.
type TierKind struct {
	// Tier is the server (for retransmit spans, the dropping server).
	Tier string
	// Kind is the span kind.
	Kind Kind
}

// Row aggregates the critical-path decomposition of one group of requests
// (a response-time decile, a tail percentile, or the VLRT population).
type Row struct {
	// Label names the group ("D1".."D10", "p99", "p99.9", "VLRT>3s").
	Label string
	// Count is the number of requests in the group.
	Count int
	// MeanRT and MaxRT summarize the group's response times.
	MeanRT, MaxRT time.Duration
	// Total is the summed response time — the 100% of the shares.
	Total time.Duration
	// ByKind is the summed exclusive time per span kind.
	ByKind map[Kind]time.Duration
	// ByTierKind is the summed exclusive time per (tier, kind).
	ByTierKind map[TierKind]time.Duration
}

// Share returns the fraction of the group's total time spent in kind.
func (r Row) Share(k Kind) float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.ByKind[k]) / float64(r.Total)
}

// WaitShare returns the fraction of the group's total time attributable to
// waiting rather than working: retransmission gaps plus queue and
// connection-pool waits. The paper's thesis is that this fraction, not
// service time, dominates the tail.
func (r Row) WaitShare() float64 {
	return r.Share(KindRetransmit) + r.Share(KindQueueWait) + r.Share(KindPoolWait)
}

// Breakdown is the per-decile critical-path table: where each slice of the
// response-time distribution spent its time. It tells the Fig. 3(c) story
// as a table — the fast deciles are all service, the tail is all
// retransmission gaps and cross-tier queueing.
type Breakdown struct {
	// Requests is the number of finished traces analyzed.
	Requests int
	// Deciles are the ten response-time deciles, fastest first.
	Deciles []Row
	// P99 and P999 cover the slowest 1% and 0.1%.
	P99, P999 Row
	// VLRT covers the >3s requests (Count 0 when there were none).
	VLRT Row
}

// Breakdown builds the critical-path table from every finished trace.
// It returns nil if no traces finished.
func (tr *Tracer) Breakdown() *Breakdown {
	if tr == nil || tr.records.n == 0 {
		return nil
	}
	recs := make([]record, 0, tr.records.n)
	for _, chunk := range tr.records.chunks {
		recs = append(recs, chunk...)
	}
	// The same pdqsort as sort.Slice, without its reflection swapper:
	// both run one comparison and swap sequence, so tied records land
	// where they always did.
	slices.SortFunc(recs, func(a, b record) int { return cmp.Compare(a.rt, b.rt) })

	n := len(recs)
	b := &Breakdown{Requests: n}
	sums := make([]time.Duration, len(tr.tiers)*kindCount)
	for d := 0; d < 10; d++ {
		lo, hi := n*d/10, n*(d+1)/10
		b.Deciles = append(b.Deciles,
			tr.aggregate(fmt.Sprintf("D%d", d+1), recs[lo:hi], sums))
	}
	b.P99 = tr.aggregate("p99", recs[n*99/100:], sums)
	b.P999 = tr.aggregate("p99.9", recs[n*999/1000:], sums)
	vlrtFrom := sort.Search(n, func(i int) bool { return recs[i].rt > vlrtThreshold })
	b.VLRT = tr.aggregate("VLRT>3s", recs[vlrtFrom:], sums)
	return b
}

// aggregate folds a sorted slice of records into one row. It sums the
// categories in sums, one slot per (interned tier, kind), and builds the
// row's maps from the slots once. Categories hold only non-zero time,
// so a slot is non-zero exactly when some record has that category.
func (tr *Tracer) aggregate(label string, recs []record, sums []time.Duration) Row {
	row := Row{
		Label:      label,
		Count:      len(recs),
		ByKind:     make(map[Kind]time.Duration),
		ByTierKind: make(map[TierKind]time.Duration),
	}
	clear(sums)
	for _, r := range recs {
		row.Total += r.rt
		if r.rt > row.MaxRT {
			row.MaxRT = r.rt
		}
		for i := r.lo; i < r.hi; i++ {
			c := tr.cats.at(int(i))
			sums[int(c.tier)*kindCount+int(c.kind)] += c.self
		}
	}
	for slot, d := range sums {
		if d == 0 {
			continue
		}
		kind := Kind(slot % kindCount)
		row.ByKind[kind] += d
		row.ByTierKind[TierKind{Tier: tr.tiers[slot/kindCount], Kind: kind}] = d
	}
	if row.Count > 0 {
		row.MeanRT = row.Total / time.Duration(row.Count)
	}
	return row
}

// tableKinds are the columns of the rendered table; everything else
// (root/request self time, downstream network residue) lands in "other".
var tableKinds = []Kind{KindQueueWait, KindService, KindRetransmit, KindPoolWait}

// otherShare is 1 minus the tabled shares.
func otherShare(r Row) float64 {
	if r.Total <= 0 {
		return 0
	}
	s := 1.0
	for _, k := range tableKinds {
		s -= r.Share(k)
	}
	if s < 0 {
		s = 0
	}
	return s
}

// String renders the per-decile table plus, when the tail exists, the
// per-tier decomposition of the VLRT population.
func (b *Breakdown) String() string {
	if b == nil {
		return "(no span breakdown)\n"
	}
	var w strings.Builder
	fmt.Fprintf(&w, "critical-path breakdown over %d traced requests "+
		"(exclusive time, %% of group response time)\n", b.Requests)
	fmt.Fprintf(&w, "  %-8s %8s %10s %10s %7s %8s %8s %6s %6s\n",
		"group", "n", "mean", "max", "queue%", "service%", "retran%", "pool%", "other%")
	rows := append(append([]Row{}, b.Deciles...), b.P99, b.P999)
	if b.VLRT.Count > 0 {
		rows = append(rows, b.VLRT)
	}
	for _, r := range rows {
		if r.Count == 0 {
			continue
		}
		fmt.Fprintf(&w, "  %-8s %8d %10v %10v %7.1f %8.1f %8.1f %6.1f %6.1f\n",
			r.Label, r.Count,
			r.MeanRT.Round(10*time.Microsecond),
			r.MaxRT.Round(10*time.Microsecond),
			100*r.Share(KindQueueWait), 100*r.Share(KindService),
			100*r.Share(KindRetransmit), 100*r.Share(KindPoolWait),
			100*otherShare(r))
	}
	if b.VLRT.Count > 0 {
		fmt.Fprintf(&w, "per-tier decomposition of the %d VLRT requests:\n", b.VLRT.Count)
		for _, tk := range sortedTierKinds(b.VLRT) {
			d := b.VLRT.ByTierKind[tk]
			fmt.Fprintf(&w, "  %-24s %-12s %12v %6.1f%%\n",
				tk.Tier, tk.Kind.String(), d.Round(time.Millisecond),
				100*float64(d)/float64(b.VLRT.Total))
		}
	}
	return w.String()
}

// sortedTierKinds orders a row's categories by descending time (ties by
// name for determinism).
func sortedTierKinds(r Row) []TierKind {
	out := make([]TierKind, 0, len(r.ByTierKind))
	for tk := range r.ByTierKind {
		out = append(out, tk)
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := r.ByTierKind[out[i]], r.ByTierKind[out[j]]
		if di != dj {
			return di > dj
		}
		if out[i].Tier != out[j].Tier {
			return out[i].Tier < out[j].Tier
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}
