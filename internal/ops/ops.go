// Package ops serves the middleware's operational HTTP surface: a load
// balancer health probe (/healthz) and a plain-text metrics dump
// (/metrics). The paper's systems lived or died by operability — §4.3.4's
// failure detection and §5's lessons are all about operators seeing
// overload and failures as they happen — so the daemon exposes replica
// health, replication lag, admission-control pressure, per-class latency
// percentiles and cache effectiveness on one scrapeable endpoint.
package ops

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/qcache"
)

// Options selects what the endpoint reports. Only Cluster is required.
type Options struct {
	// Cluster supplies replica health and replication positions.
	Cluster core.Cluster
	// Admission, when non-nil, adds overload-protection metrics.
	Admission *admission.Controller
	// QueryCache, when non-nil, adds result-cache metrics.
	QueryCache *qcache.Cache
	// WireRejected, when non-nil, reports connections refused by the wire
	// server's max-conns guard.
	WireRejected func() uint64
	// FailoverHistory, when non-nil, exports the cluster's failover record:
	// total count, transactions lost per failover (the paper's
	// LostTransactions), and the most recent promotion.
	FailoverHistory func() []core.FailoverRecord
	// LagSeries, when non-nil, exports per-replica apply-lag time series
	// (current/avg/max over the retained window) — the same series the
	// autoscaler consumes.
	LagSeries func() map[string][]metrics.Sample
	// Elastic, when non-nil, appends migration/autoscaler state lines
	// (routing epoch, migrations, replica transitions).
	Elastic func(w io.Writer)
	// Extra, when non-nil, appends deployment-specific metric lines (e.g.
	// failover counts from the durable monitor).
	Extra func(w io.Writer)
}

// Server is the HTTP ops endpoint.
type Server struct {
	opts Options
	ln   net.Listener
	http *http.Server
}

// NewServer starts the endpoint on addr ("127.0.0.1:0" picks a free port).
func NewServer(addr string, opts Options) (*Server, error) {
	if opts.Cluster == nil {
		return nil, fmt.Errorf("ops: Options.Cluster is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{opts: opts, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/metrics", s.metrics)
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.http.Serve(ln) }()
	return s, nil
}

// Addr returns the endpoint's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint.
func (s *Server) Close() { _ = s.http.Close() }

// healthz answers 200 while the cluster can serve at least one replica and
// 503 otherwise — the contract load balancers and orchestrators expect. Each
// replication fault adds a line but leaves the status alone: a stopped WAN
// link does not stop the cluster serving.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	h := s.opts.Cluster.Health()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if h.HealthyReplicas == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "unhealthy: 0/%d replicas\n", h.Replicas)
	} else {
		fmt.Fprintf(w, "ok: %d/%d replicas, head=%d, max_lag=%d\n",
			h.HealthyReplicas, h.Replicas, h.Head, h.MaxLag)
	}
	for _, f := range h.Faults {
		fmt.Fprintf(w, "fault: %s\n", f)
	}
}

// metrics dumps `name value` lines, one metric per line — trivially
// parseable, and close enough to the Prometheus exposition format that
// standard scrapers ingest it.
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	h := s.opts.Cluster.Health()
	fmt.Fprintf(w, "repl_replicas %d\n", h.Replicas)
	fmt.Fprintf(w, "repl_replicas_healthy %d\n", h.HealthyReplicas)
	fmt.Fprintf(w, "repl_head %d\n", h.Head)
	fmt.Fprintf(w, "repl_max_lag %d\n", h.MaxLag)
	fmt.Fprintf(w, "repl_replication_faults %d\n", len(h.Faults))

	if c := s.opts.Admission; c != nil {
		st := c.Stats()
		cfg := c.Config()
		fmt.Fprintf(w, "repl_admission_slots %d\n", cfg.Slots)
		fmt.Fprintf(w, "repl_admission_queue_cap %d\n", cfg.Queue)
		fmt.Fprintf(w, "repl_admission_active %d\n", st.Active)
		fmt.Fprintf(w, "repl_admission_waiting %d\n", st.Waiting)
		fmt.Fprintf(w, "repl_admission_admitted_total %d\n", st.Admitted)
		fmt.Fprintf(w, "repl_admission_queued_total %d\n", st.Queued)
		fmt.Fprintf(w, "repl_admission_expired_total %d\n", st.Expired)
		fmt.Fprintf(w, "repl_admission_shed_total %d\n", st.ShedTotal())
		fmt.Fprintf(w, "repl_admission_slow_total %d\n", st.SlowTotal())
		shedding := 0
		if c.Shedding() {
			shedding = 1
		}
		fmt.Fprintf(w, "repl_admission_shedding %d\n", shedding)
		for class := admission.Class(0); int(class) < admission.NumClasses; class++ {
			name := class.String()
			fmt.Fprintf(w, "repl_admission_shed_%s %d\n", name, st.Shed[class])
			fmt.Fprintf(w, "repl_admission_slow_%s %d\n", name, st.Slow[class])
			if hist := c.Latency(class); hist != nil && hist.Count() > 0 {
				fmt.Fprintf(w, "repl_statement_seconds_count_%s %d\n", name, hist.Count())
				fmt.Fprintf(w, "repl_statement_seconds_p50_%s %.6f\n", name, hist.Percentile(50).Seconds())
				fmt.Fprintf(w, "repl_statement_seconds_p99_%s %.6f\n", name, hist.Percentile(99).Seconds())
				fmt.Fprintf(w, "repl_statement_seconds_max_%s %.6f\n", name, hist.Max().Seconds())
			}
		}
	}

	if qc := s.opts.QueryCache; qc != nil {
		st := qc.Stats()
		fmt.Fprintf(w, "repl_qcache_hits_total %d\n", st.Hits)
		fmt.Fprintf(w, "repl_qcache_misses_total %d\n", st.Misses)
		fmt.Fprintf(w, "repl_qcache_puts_total %d\n", st.Puts)
		fmt.Fprintf(w, "repl_qcache_invalidation_events_total %d\n", st.InvalidationEvents)
	}

	if f := s.opts.WireRejected; f != nil {
		fmt.Fprintf(w, "repl_wire_rejected_conns_total %d\n", f())
	}

	if f := s.opts.FailoverHistory; f != nil {
		hist := f()
		var lost uint64
		for _, rec := range hist {
			lost += rec.Lost
		}
		fmt.Fprintf(w, "repl_failovers_total %d\n", len(hist))
		fmt.Fprintf(w, "repl_failover_lost_total %d\n", lost)
		if n := len(hist); n > 0 {
			last := hist[n-1]
			fmt.Fprintf(w, "repl_failover_last_lost %d\n", last.Lost)
			fmt.Fprintf(w, "repl_failover_last_unix %d\n", last.At.Unix())
		}
	}

	if f := s.opts.LagSeries; f != nil {
		series := f()
		names := make([]string, 0, len(series))
		for name := range series {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			samples := series[name]
			if len(samples) == 0 {
				continue
			}
			var sum, max float64
			for _, smp := range samples {
				sum += smp.V
				if smp.V > max {
					max = smp.V
				}
			}
			fmt.Fprintf(w, "repl_lag_current_%s %.0f\n", name, samples[len(samples)-1].V)
			fmt.Fprintf(w, "repl_lag_avg_%s %.2f\n", name, sum/float64(len(samples)))
			fmt.Fprintf(w, "repl_lag_max_%s %.0f\n", name, max)
			fmt.Fprintf(w, "repl_lag_samples_%s %d\n", name, len(samples))
		}
	}

	if s.opts.Elastic != nil {
		s.opts.Elastic(w)
	}

	if s.opts.Extra != nil {
		s.opts.Extra(w)
	}
}
