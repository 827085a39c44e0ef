// Command rlcxd serves clocktree RLC extraction over HTTP/JSON: a
// resident daemon holding mmapped table sets in a refcounted registry
// over the content-addressed cache, so a CTS flow extracts thousands
// of nets against tables that are built (or mapped) once.
//
// Endpoints: POST /v1/extract (one segment), POST /v1/batch (a batch
// at one rise time), GET /healthz, GET /metrics (Prometheus text),
// /debug/vars and /debug/pprof/*.
//
// Example:
//
//	rlcxd -addr :8650 -cache /var/cache/rlcx
//
// Overload behavior: -max-inflight/-queue/-queue-wait bound admitted
// concurrency (excess requests are shed with 429 + Retry-After),
// -request-timeout caps every request's extraction budget (clients
// may lower it via timeout_ms; exceeding it is 503 + Retry-After),
// and -breaker-failures/-breaker-cooldown arm the per-table-key
// cold-build circuit breaker so a failing solver answers with a fast
// 503 instead of a stampede of sweeps.
//
// SIGINT/SIGTERM drain gracefully: readiness flips first (/healthz
// answers 503 for -drain-grace so load balancers stop routing), the
// listener closes, in-flight requests finish (bounded by -drain),
// table mappings are released, and the process exits 130/143 so
// supervisors can tell a stop from a crash. A second signal exits
// immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/cliobs"
	"clockrlc/internal/core"
	"clockrlc/internal/serve"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// options collects the daemon's flag values.
type options struct {
	addr, cacheDir       string
	maxSets, workers     int
	thickness, capHeight float64
	checkPol, lookupPol  string
	drain, drainGrace    time.Duration
	requestTimeout       time.Duration
	maxInflight, queue   int
	queueWait            time.Duration
	breakerFailures      int
	breakerCooldown      time.Duration
}

func main() {
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8650", "listen `address` (host:port; :0 picks a free port)")
	flag.StringVar(&o.cacheDir, "cache", "", "content-addressed table cache `directory` (empty: build in memory only)")
	flag.IntVar(&o.maxSets, "max-sets", 64, "resident table sets before LRU eviction (0 = unbounded)")
	flag.IntVar(&o.workers, "workers", 0, "table-build worker pool size (0 = GOMAXPROCS)")
	flag.Float64Var(&o.thickness, "thickness", 2, "metal thickness (µm)")
	flag.Float64Var(&o.capHeight, "caph", 2, "height over the capacitive reference (µm)")
	flag.StringVar(&o.lookupPol, "lookup-policy", "extrapolate",
		"default out-of-range table lookup `policy`: extrapolate, clamp or error (requests may override)")
	flag.DurationVar(&o.drain, "drain", 30*time.Second, "graceful-shutdown `timeout` for in-flight requests")
	flag.DurationVar(&o.drainGrace, "drain-grace", 0,
		"`window` between flipping /healthz to 503 and closing the listener, so load balancers observe the drain")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 30*time.Second,
		"per-request extraction `budget`; requests may lower it via timeout_ms but never raise it (0 = none)")
	flag.IntVar(&o.maxInflight, "max-inflight", 64,
		"concurrently admitted extract/batch requests before queueing (0 = unbounded)")
	flag.IntVar(&o.queue, "queue", 64, "requests allowed to wait for an admission slot before shedding (429)")
	flag.DurationVar(&o.queueWait, "queue-wait", time.Second, "max `time` a queued request waits before shedding")
	flag.IntVar(&o.breakerFailures, "breaker-failures", 5,
		"consecutive cold-build failures that open a table key's circuit breaker (0 = off)")
	flag.DurationVar(&o.breakerCooldown, "breaker-cooldown", 5*time.Second,
		"`time` an open circuit breaker sheds cold builds before probing again")
	flag.Parse()
	sd := cliobs.NotifyShutdown()
	sess, err := obsFlags.Start("rlcxd")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlcxd:", err)
		os.Exit(cliobs.ExitFailure)
	}
	o.checkPol = obsFlags.Check
	err = run(sess.Context(sd.Context()), o)
	sess.Close()
	sd.Stop()
	if err != nil {
		if code := sd.ExitCode(err); code >= 128 {
			// Signal-initiated stop after a clean drain: not a failure,
			// but the exit code tells the supervisor which signal.
			fmt.Fprintln(os.Stderr, "rlcxd: drained and stopped on signal")
			os.Exit(code)
		}
		fmt.Fprintln(os.Stderr, "rlcxd:", err)
		os.Exit(sd.ExitCode(err))
	}
}

// checkFlags refuses flag values the daemon cannot run with. Zero keeps
// the meaning the help text gives it (unbounded, none, GOMAXPROCS);
// only negative counts and durations are refused.
func checkFlags(o options) error {
	for _, err := range []error{
		cliobs.CheckPositiveFlag("thickness", o.thickness),
		cliobs.CheckPositiveFlag("caph", o.capHeight),
	} {
		if err != nil {
			return err
		}
	}
	for _, f := range []struct {
		name string
		neg  bool
		v    any
	}{
		{"max-sets", o.maxSets < 0, o.maxSets},
		{"workers", o.workers < 0, o.workers},
		{"max-inflight", o.maxInflight < 0, o.maxInflight},
		{"queue", o.queue < 0, o.queue},
		{"breaker-failures", o.breakerFailures < 0, o.breakerFailures},
		{"request-timeout", o.requestTimeout < 0, o.requestTimeout},
		{"queue-wait", o.queueWait < 0, o.queueWait},
	} {
		if f.neg {
			return fmt.Errorf("%w: -%s %v (want 0 or more)", cliobs.ErrBadFlag, f.name, f.v)
		}
	}
	return nil
}

func run(ctx context.Context, o options) error {
	if err := checkFlags(o); err != nil {
		return err
	}
	checkPolicy, err := check.ParsePolicy(o.checkPol)
	if err != nil {
		return fmt.Errorf("-check: %w", err)
	}
	lp, err := table.ParseLookupPolicy(o.lookupPol)
	if err != nil {
		return fmt.Errorf("-lookup-policy: %w", err)
	}
	var cache *table.Cache
	if o.cacheDir != "" {
		cache, err = table.NewCache(o.cacheDir)
		if err != nil {
			return fmt.Errorf("-cache: %w", err)
		}
	}
	s, err := serve.New(serve.Config{
		Tech: core.Technology{
			Thickness:      units.Um(o.thickness),
			Rho:            units.RhoCopper,
			EpsRel:         units.EpsSiO2,
			CapHeight:      units.Um(o.capHeight),
			PlaneGap:       units.Um(2),
			PlaneThickness: units.Um(1),
		},
		Cache:           cache,
		MaxSets:         o.maxSets,
		Workers:         o.workers,
		DefaultCheck:    checkPolicy,
		DefaultLookup:   lp,
		MaxInFlight:     o.maxInflight,
		QueueDepth:      o.queue,
		QueueWait:       o.queueWait,
		RequestTimeout:  o.requestTimeout,
		BreakerFailures: o.breakerFailures,
		BreakerCooldown: o.breakerCooldown,
	})
	if err != nil {
		return err
	}
	defer s.Close()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	// The line scripts parse for the bound port — keep the format.
	fmt.Printf("rlcxd: listening on %s\n", ln.Addr())

	// Requests deliberately do NOT inherit the shutdown context: the
	// first signal stops accepting but lets in-flight extractions
	// finish inside the drain budget. The second-signal hard exit in
	// cliobs remains the escape hatch. The read/write/idle timeouts
	// bound what a slow or stalled client can hold open (slowloris);
	// the write timeout is generous because it covers the handler —
	// a cold build plus a 20k-segment response must fit inside it.
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return fmt.Errorf("rlcxd: serve: %w", err)
	case <-ctx.Done():
	}
	// Readiness flips before the listener closes: /healthz answers 503
	// for the grace window so load balancers route around the drain,
	// then Shutdown refuses new connections and waits for in-flight
	// requests.
	s.StartDrain()
	if o.drainGrace > 0 {
		select {
		case <-time.After(o.drainGrace):
		case err := <-errCh:
			return fmt.Errorf("rlcxd: serve: %w", err)
		}
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		srv.Close()
		return fmt.Errorf("rlcxd: drain: %w", err)
	}
	if err := s.Drain(drainCtx); err != nil {
		return fmt.Errorf("rlcxd: drain: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// A signal-initiated stop exits 130/143 via the cancellation
	// surfacing through ExitCode.
	return ctx.Err()
}
