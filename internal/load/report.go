package load

import (
	"fmt"
	"io"
	"time"
)

// ms renders a duration as fractional milliseconds for tables.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// WriteTable renders the run as a human-readable report: one windowed
// row per time bucket (reads and writes separately, so a burst or a
// phase-4 I/O storm is visible as a line, not an average), then the
// per-op-type totals.
func (r *Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "target %s: %d ops in %.2fs (window %s)\n",
		r.Target, r.Ops(), r.Wall.Seconds(), r.Window)
	fmt.Fprintln(w, "window      reads  r-p50ms  r-p99ms   writes  w-p50ms  w-p99ms")
	for _, win := range r.Windows() {
		reads := win.Ops[Neighbors] + win.Ops[Profile]
		// Merge the two read kinds' percentiles conservatively: show
		// the slower of the two at each quantile.
		rp50 := max(win.P50[Neighbors], win.P50[Profile])
		rp99 := max(win.P99[Neighbors], win.P99[Profile])
		fmt.Fprintf(w, "%7s  %7d  %7.2f  %7.2f  %7d  %7.2f  %7.2f\n",
			win.Start.Truncate(time.Millisecond), reads, ms(rp50), ms(rp99),
			win.Ops[Update], ms(win.P50[Update]), ms(win.P99[Update]))
	}
	fmt.Fprintln(w, "op         count    ops/s   meanms    p50ms    p95ms    p99ms  misses  errors  timeout  refused  shed  proto")
	for k := Kind(0); k < NumKinds; k++ {
		kr := r.Kinds[k]
		if kr.Ops == 0 {
			continue
		}
		fmt.Fprintf(w, "%-9s %6d  %7.0f  %7.2f  %7.2f  %7.2f  %7.2f  %6d  %6d  %7d  %7d  %4d  %5d\n",
			k, kr.Ops, kr.Throughput, ms(kr.Mean), ms(kr.P50), ms(kr.P95), ms(kr.P99),
			kr.Misses, kr.Errors,
			kr.Classes[ClassTimeout], kr.Classes[ClassRefused], kr.Classes[ClassShed], kr.Classes[ClassProtocol])
		if kr.FirstError != "" {
			fmt.Fprintf(w, "          first error: %s\n", kr.FirstError)
		}
	}
}

// WriteComparison renders a p50/p99 cross-target table — the view
// that answers "did the replica tier beat the primaries at the tail".
func WriteComparison(w io.Writer, results []*Result) {
	if len(results) < 2 {
		return
	}
	fmt.Fprintln(w, "comparison (per op type, across targets):")
	fmt.Fprintf(w, "%-9s  %-12s  %8s  %8s  %8s  %8s\n", "op", "target", "ops/s", "p50ms", "p99ms", "errors")
	for k := Kind(0); k < NumKinds; k++ {
		for _, r := range results {
			kr := r.Kinds[k]
			if kr.Ops == 0 {
				continue
			}
			fmt.Fprintf(w, "%-9s  %-12s  %8.0f  %8.2f  %8.2f  %8d\n",
				k, r.Target, kr.Throughput, ms(kr.P50), ms(kr.P99), kr.Errors)
		}
	}
}
