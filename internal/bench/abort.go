package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rme"
	"rme/internal/metrics"
)

// The abort experiment measures what abortable passages cost: per-passage
// RMRs of the failure-free path at abort rates 0, 1% and 10%, plus the
// RMR distribution of the back-outs themselves. Aborts are injected
// through the public deadline API (TryLockFor with a microsecond-scale
// deadline), so the measurement exercises the real cancellation-flag/back-out
// machinery end to end. The rate-0 row doubles as the regression anchor:
// it must match the plain metrics experiment's F=0 numbers (the abort
// support is off the failure-free path), which the CI abort-gate asserts.
// Results serialize as BENCH_abort.json (rme-bench-abort/v1).

// AbortOpts configures the abort experiment.
type AbortOpts struct {
	// Workers is the fixed worker count (default 8).
	Workers int
	// Passages is the total completed-passage target per measurement
	// (default 5000).
	Passages int
	// Rates lists the fraction of attempts made under a tight deadline
	// (default 0, 0.01, 0.10). A deadlined attempt aborts only if the
	// deadline actually expires while queued, so the delivered abort
	// count is reported separately from the rate.
	Rates []float64
}

func (o *AbortOpts) fill() {
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Passages <= 0 {
		o.Passages = 5000
	}
	if o.Rates == nil {
		o.Rates = []float64{0, 0.01, 0.10}
	}
}

// AbortResult is one measured configuration.
type AbortResult struct {
	Lock     string  `json:"lock"`
	Workers  int     `json:"workers"`
	Rate     float64 `json:"rate"` // fraction of attempts under a deadline
	Attempts uint64  `json:"attempts"`
	Passages uint64  `json:"passages"` // completed passages
	Aborted  uint64  `json:"aborted"`  // attempts that backed out
	// Failure-free per-passage RMRs (aborted attempts excluded).
	RMRMedian int     `json:"rmr_median"`
	RMRP99    int     `json:"rmr_p99"`
	RMRMean   float64 `json:"rmr_mean"`
	// Back-out RMRs: queue entry plus the abandon dance, per aborted
	// attempt.
	AbortRMRMedian int      `json:"abort_rmr_median"`
	AbortRMRP99    int      `json:"abort_rmr_p99"`
	AbandonedHist  []uint64 `json:"abandoned_hist,omitempty"` // aborts by deepest level
}

// AbortReport is the BENCH_abort.json document.
type AbortReport struct {
	Schema     string        `json:"schema"` // "rme-bench-abort/v1"
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Passages   int           `json:"passages_per_measurement"`
	Results    []AbortResult `json:"results"`
}

// abortRunner is the measurement seam; tests stub it to exercise the
// sweep structure without running real passages.
var abortRunner = abortRun

// AbortCost sweeps abort rates on every native lock and reports the
// failure-free and back-out RMR distributions.
func AbortCost(o AbortOpts) (*AbortReport, error) {
	o.fill()
	rep := &AbortReport{
		Schema:     "rme-bench-abort/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Passages:   o.Passages,
	}
	for _, lk := range nativeLocks {
		for _, rate := range o.Rates {
			s, err := abortRunner(lk.opts, o.Workers, o.Passages, rate)
			if err != nil {
				return nil, fmt.Errorf("bench: abort %s rate=%g: %w", lk.name, rate, err)
			}
			rep.Results = append(rep.Results, AbortResult{
				Lock:           lk.name,
				Workers:        o.Workers,
				Rate:           rate,
				Attempts:       s.Attempts,
				Passages:       s.Passages,
				Aborted:        s.Aborted,
				RMRMedian:      s.RMRHist.Quantile(0.5),
				RMRP99:         s.RMRHist.Quantile(0.99),
				RMRMean:        s.RMRHist.Mean(),
				AbortRMRMedian: s.AbortRMRHist.Quantile(0.5),
				AbortRMRP99:    s.AbortRMRHist.Quantile(0.99),
				AbandonedHist:  s.AbandonedHist,
			})
		}
	}
	return rep, nil
}

// abortRun completes `passages` total passages split across `workers`
// processes, making the configured fraction of attempts under a tight
// deadline, and returns the final snapshot. An attempt whose deadline
// expires backs out through the abort protocol and the passage is then
// completed by an ordinary re-acquisition, so every iteration ends with
// one completed passage regardless of the abort outcome.
func abortRun(lockOpts []rme.Option, workers, passages int, rate float64) (metrics.Snapshot, error) {
	opts := append([]rme.Option(nil), lockOpts...)
	opts = append(opts, rme.WithMetrics())
	m, err := rme.New(workers, opts...)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	per := passages / workers
	if per < 1 {
		per = 1
	}
	start := make(chan struct{})
	done := make(chan struct{}, workers)
	for pid := 0; pid < workers; pid++ {
		go func(pid int) {
			rng := rand.New(rand.NewSource(int64(pid)*1099511628211 + 1))
			<-start
			for i := 0; i < per; i++ {
				if rate > 0 && rng.Float64() < rate {
					d := time.Duration(1+rng.Intn(20)) * time.Microsecond
					if m.TryLockFor(pid, d) {
						m.Unlock(pid)
						continue
					}
					// Aborted out of the queue; complete the passage with
					// an ordinary re-acquisition (abort-then-reacquire).
				}
				m.Lock(pid)
				m.Unlock(pid)
			}
			done <- struct{}{}
		}(pid)
	}
	close(start)
	for i := 0; i < workers; i++ {
		<-done
	}
	s, _ := m.MetricsSnapshot()
	return s, nil
}

// Table renders the report as a bench table for the text mode.
func (r *AbortReport) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Abortable passages (exact CC RMRs, GOMAXPROCS=%d, num_cpu=%d)",
			r.GOMAXPROCS, r.NumCPU),
		Columns: []string{"lock", "workers", "rate", "attempts", "passages", "aborted", "rmr med", "rmr p99", "abort med", "abort p99"},
		Notes: []string{
			"rate: fraction of attempts made under a microsecond-scale deadline (TryLockFor)",
			"expect: rmr med identical at rate 0 to the metrics experiment's F=0 row; abort med bounded",
		},
	}
	for _, res := range r.Results {
		t.Add(res.Lock, res.Workers, res.Rate, res.Attempts, res.Passages, res.Aborted,
			res.RMRMedian, res.RMRP99, res.AbortRMRMedian, res.AbortRMRP99)
	}
	return t
}

// JSON serializes the report (the BENCH_abort.json format).
func (r *AbortReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
