// Command rlcxload drives an rlcxd daemon with concurrent batch
// extraction requests and reports throughput and latency percentiles
// as JSON — a load generator for a running daemon (the repository's
// benchmark is perfbench/, which serves in process), a cold-cache
// coalescing probe (every worker's first request misses the same table
// keys; the daemon must run one solver sweep per unique key), and an
// overload probe (drive it past -max-inflight and the daemon must shed
// with 429 instead of collapsing).
//
// Shed (429) and unavailable (503) responses are retried with
// capped-exponential backoff and deterministic jitter, honoring the
// daemon's Retry-After header. Percentiles cover admitted (2xx)
// requests only; failures are counted separately per status in
// errors_by_status, alongside shed/retry/timeout totals.
//
// Example:
//
//	rlcxd -addr 127.0.0.1:8650 -cache /tmp/c &
//	rlcxload -addr 127.0.0.1:8650 -n 2000 -c 32 -batch 8
//
// With -inprocess the same workload also runs directly against the
// core batch API in this process (same technology, same axes), and
// the report adds the served-over-in-process p50 ratio — the HTTP,
// JSON and registry overhead per request.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clockrlc/internal/cliobs"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// segmentJSON mirrors the serve wire schema (the cmd speaks the wire
// format rather than importing the serve types: a load generator
// should exercise the contract, not share the implementation).
type segmentJSON struct {
	LengthUm      float64 `json:"length_um"`
	SignalWidthUm float64 `json:"signal_width_um"`
	GroundWidthUm float64 `json:"ground_width_um"`
	SpacingUm     float64 `json:"spacing_um"`
	Shielding     string  `json:"shielding,omitempty"`
}

type batchJSON struct {
	RiseTimePs float64       `json:"rise_time_ps"`
	Segments   []segmentJSON `json:"segments"`
}

// report is the emitted measurement. Percentiles and throughput cover
// admitted (2xx) requests only: folding shed or failed requests into
// latency numbers would reward a daemon for failing fast.
// Sheds/retries/timeouts describe the load shape, not the code.
type report struct {
	Requests       int              `json:"requests"`
	Concurrency    int              `json:"concurrency"`
	Batch          int              `json:"batch"`
	Errors         int64            `json:"errors"`
	Sheds          int64            `json:"sheds"`
	Retries        int64            `json:"retries"`
	Timeouts       int64            `json:"timeouts"`
	ErrorsByStatus map[string]int64 `json:"errors_by_status,omitempty"`
	ThroughputRPS  float64          `json:"throughput_rps"`
	P50Ns          int64            `json:"p50_ns"`
	P90Ns          int64            `json:"p90_ns"`
	P99Ns          int64            `json:"p99_ns"`
	InProcessP50Ns int64            `json:"inprocess_p50_ns,omitempty"`
	VsInProcessP50 float64          `json:"serve_vs_inprocess_p50,omitempty"`
}

// retryOpts is the client-side backoff schedule for 429/503
// responses.
type retryOpts struct {
	retries int           // re-attempts after the first try
	base    time.Duration // first backoff
	cap     time.Duration // backoff and Retry-After ceiling
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8650", "rlcxd `address` (host:port)")
		n         = flag.Int("n", 2000, "total requests")
		c         = flag.Int("c", 32, "concurrent workers")
		batch     = flag.Int("batch", 8, "segments per request")
		tr        = flag.Float64("tr", 50, "rise time (ps)")
		warm      = flag.Int("warm", 64, "warmup requests excluded from the measurement")
		inprocess = flag.Bool("inprocess", false, "also run the workload against the in-process batch API and report the p50 ratio")
		out       = flag.String("o", "", "write the JSON report to `file` (default stdout)")
		retries   = flag.Int("retries", 3, "retry budget per request for 429/503 responses")
		retryBase = flag.Duration("retry-base", 25*time.Millisecond, "first retry backoff (doubles per attempt)")
		retryCap  = flag.Duration("retry-cap", 2*time.Second, "retry backoff and honored Retry-After ceiling")
		timeout   = flag.Duration("timeout", 5*time.Minute, "client-side per-attempt `timeout`")
		tolerate  = flag.Bool("tolerate-errors", false, "exit 0 even when requests failed terminally (overload runs)")
	)
	flag.Parse()
	sd := cliobs.NotifyShutdown()
	defer sd.Stop()
	ro := retryOpts{retries: *retries, base: *retryBase, cap: *retryCap}
	rep, err := run(sd.Context(), *addr, *n, *c, *batch, *tr, *warm, *inprocess, ro, *timeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlcxload:", err)
		os.Exit(sd.ExitCode(err))
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlcxload:", err)
		os.Exit(cliobs.ExitFailure)
	}
	b = append(b, '\n')
	if *out != "" {
		err = os.WriteFile(*out, b, 0o644)
	} else {
		_, err = os.Stdout.Write(b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlcxload:", err)
		os.Exit(cliobs.ExitFailure)
	}
	if rep.Errors > 0 && !*tolerate {
		fmt.Fprintf(os.Stderr, "rlcxload: %d of %d requests failed terminally\n", rep.Errors, rep.Requests)
		os.Exit(cliobs.ExitFailure)
	}
}

// segments cycles a small pool of realistic geometries (all inside
// the default axes) with mixed shielding so the daemon exercises more
// than one table set.
func segments(batch, seed int) []segmentJSON {
	pool := []segmentJSON{
		{LengthUm: 6000, SignalWidthUm: 10, GroundWidthUm: 5, SpacingUm: 1},
		{LengthUm: 2000, SignalWidthUm: 4, GroundWidthUm: 4, SpacingUm: 2},
		{LengthUm: 800, SignalWidthUm: 2, GroundWidthUm: 2, SpacingUm: 1.5},
		{LengthUm: 4000, SignalWidthUm: 6, GroundWidthUm: 3, SpacingUm: 1.2, Shielding: "microstrip"},
		{LengthUm: 1500, SignalWidthUm: 3, GroundWidthUm: 3, SpacingUm: 2.5, Shielding: "microstrip"},
	}
	segs := make([]segmentJSON, batch)
	for i := range segs {
		segs[i] = pool[(seed+i)%len(pool)]
	}
	return segs
}

// attemptResult is one request's terminal outcome after retries.
type attemptResult struct {
	ok      bool
	status  int // last HTTP status; 0 = transport failure
	latency time.Duration
	sheds   int64 // 429s observed (including retried-then-succeeded)
	retries int64
	timeout bool // last failure was a client-side timeout
}

// tally accumulates attemptResults across workers.
type tally struct {
	mu       sync.Mutex
	lat      []time.Duration // admitted (2xx) latencies only
	byStatus map[string]int64
	errs     int64
	sheds    int64
	retries  int64
	timeouts int64
	okCount  int64
}

func (t *tally) add(r attemptResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sheds += r.sheds
	t.retries += r.retries
	if r.timeout {
		t.timeouts++
	}
	if r.ok {
		t.okCount++
		t.lat = append(t.lat, r.latency)
		return
	}
	t.errs++
	if t.byStatus == nil {
		t.byStatus = map[string]int64{}
	}
	t.byStatus[strconv.Itoa(r.status)]++
}

// isTimeout reports a client-side deadline on a transport error.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout())
}

// backoffJitter maps (seed, attempt) to [0.5, 1.5) deterministically
// (splitmix64 finalizer) so overload runs replay comparably.
func backoffJitter(seed, attempt int) float64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(attempt)*0xff51afd7ed558ccd
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return 0.5 + float64(h>>11)/float64(1<<53)
}

// doRequest posts one batch, retrying 429/503 with capped-exponential
// backoff and deterministic jitter, honoring Retry-After. Transport
// errors are terminal (a daemon that dropped the connection is not
// shedding politely).
func doRequest(ctx context.Context, client *http.Client, url string, body []byte,
	seed int, ro retryOpts) attemptResult {
	var res attemptResult
	backoff := ro.base
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		status, retryAfter, err := postOnce(ctx, client, url, body)
		d := time.Since(t0)
		if err != nil {
			res.status = 0
			res.timeout = isTimeout(err)
			return res
		}
		res.status = status
		if status/100 == 2 {
			res.ok = true
			res.latency = d
			return res
		}
		if status == http.StatusTooManyRequests {
			res.sheds++
		}
		retryable := status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
		if !retryable || attempt >= ro.retries {
			return res
		}
		res.retries++
		sleep := time.Duration(float64(backoff) * backoffJitter(seed, attempt))
		if retryAfter > sleep {
			sleep = retryAfter
		}
		if ro.cap > 0 && sleep > ro.cap {
			sleep = ro.cap
		}
		timer := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			timer.Stop()
			res.timeout = true
			return res
		case <-timer.C:
		}
		backoff *= 2
		if ro.cap > 0 && backoff > ro.cap {
			backoff = ro.cap
		}
	}
}

// postOnce issues one POST and returns the status and any Retry-After
// hint.
func postOnce(ctx context.Context, client *http.Client, url string, body []byte) (status int, retryAfter time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, 0, err
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, retryAfter, nil
}

func run(ctx context.Context, addr string, n, c, batch int, tr float64, warm int,
	inprocess bool, ro retryOpts, timeout time.Duration) (*report, error) {
	for _, f := range []struct {
		name string
		v    int
	}{{"n", n}, {"c", c}, {"batch", batch}} {
		if f.v <= 0 {
			return nil, fmt.Errorf("%w: -%s %d (want at least 1)", cliobs.ErrBadFlag, f.name, f.v)
		}
	}
	if warm < 0 {
		return nil, fmt.Errorf("%w: -warm %d (want 0 or more)", cliobs.ErrBadFlag, warm)
	}
	if err := cliobs.CheckPositiveFlag("tr", tr); err != nil {
		return nil, err
	}
	url := "http://" + addr + "/v1/batch"
	client := &http.Client{Timeout: timeout}

	// The geometry pool cycles with period 5, so there are only 5
	// distinct request bodies. Marshal them once: a load generator
	// that spends its measurement window JSON-encoding megabytes of
	// segments measures itself, not the daemon — and on small hosts
	// the wasted client CPU starves the very server under test.
	const bodyVariants = 5
	bodies := make([][]byte, bodyVariants)
	for s := range bodies {
		b, err := json.Marshal(batchJSON{RiseTimePs: tr, Segments: segments(batch, s)})
		if err != nil {
			return nil, err
		}
		bodies[s] = b
	}
	bodyFor := func(seed int) []byte { return bodies[seed%bodyVariants] }

	// Warmup builds (or maps) the daemon's table sets and fills
	// connection pools; run it at full concurrency so a cold daemon
	// also demonstrates miss coalescing. Warmup outcomes are not
	// recorded — except a fully unreachable daemon, which fails fast.
	var warmFails atomic.Int64
	if err := fanout(ctx, warm, c, func(i int) error {
		res := doRequest(ctx, client, url, bodyFor(i), i, ro)
		if !res.ok {
			warmFails.Add(1)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	if warm > 0 && warmFails.Load() == int64(warm) {
		return nil, fmt.Errorf("warmup: all %d requests failed; daemon unreachable at %s?", warm, addr)
	}

	var t tally
	t0 := time.Now()
	err := fanout(ctx, n, c, func(i int) error {
		t.add(doRequest(ctx, client, url, bodyFor(i), i, ro))
		return nil
	})
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}

	rep := &report{
		Requests:       n,
		Concurrency:    c,
		Batch:          batch,
		Errors:         t.errs,
		Sheds:          t.sheds,
		Retries:        t.retries,
		Timeouts:       t.timeouts,
		ErrorsByStatus: t.byStatus,
		ThroughputRPS:  float64(t.okCount) / wall.Seconds(),
		P50Ns:          percentile(t.lat, 50),
		P90Ns:          percentile(t.lat, 90),
		P99Ns:          percentile(t.lat, 99),
	}
	if inprocess {
		p50, err := inProcessP50(ctx, n, c, batch, tr)
		if err != nil {
			return nil, fmt.Errorf("in-process pass: %w", err)
		}
		rep.InProcessP50Ns = p50
		if p50 > 0 {
			rep.VsInProcessP50 = float64(rep.P50Ns) / float64(p50)
		}
	}
	return rep, nil
}

// fanout runs n calls across c workers and returns the first
// non-HTTP error (body marshalling, cancellation); HTTP-level
// failures are the caller's business via its own accounting.
func fanout(ctx context.Context, n, c int, call func(i int) error) error {
	if n == 0 {
		return nil
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		errMu sync.Mutex
		first error
	)
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := call(i); err != nil {
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return first
}

func percentile(lat []time.Duration, p int) int64 {
	if len(lat) == 0 {
		return 0
	}
	s := make([]time.Duration, len(lat))
	copy(s, lat)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (len(s) - 1) * p / 100
	return s[idx].Nanoseconds()
}

// inProcessP50 runs the same batches straight through the vectorized
// core batch API — same technology, axes and table physics as the
// daemon's defaults — and reports the p50 per-batch latency. The
// daemon's warm p50 over this number is the service overhead.
func inProcessP50(ctx context.Context, n, c, batch int, tr float64) (int64, error) {
	tech := core.Technology{
		Thickness:      units.Um(2),
		Rho:            units.RhoCopper,
		EpsRel:         units.EpsSiO2,
		CapHeight:      units.Um(2),
		PlaneGap:       units.Um(2),
		PlaneThickness: units.Um(1),
	}
	freq := units.SignificantFrequency(tr * units.PicoSecond)
	axes := table.DefaultAxes()
	var sets []*table.Set
	for _, sh := range []geom.Shielding{geom.ShieldNone, geom.ShieldMicrostrip} {
		cfg := table.Config{
			Name:           "rlcxload/" + sh.String(),
			Thickness:      tech.Thickness,
			Rho:            tech.Rho,
			Shielding:      sh,
			PlaneGap:       tech.PlaneGap,
			PlaneThickness: tech.PlaneThickness,
			Frequency:      freq,
		}
		set, err := table.BuildCtx(ctx, cfg, axes, nil)
		if err != nil {
			return 0, err
		}
		sets = append(sets, set)
	}
	ext, err := core.NewExtractorFromTables(tech, freq, sets...)
	if err != nil {
		return 0, err
	}

	toCore := func(segs []segmentJSON) []core.Segment {
		out := make([]core.Segment, len(segs))
		for i, s := range segs {
			sh := geom.ShieldNone
			if s.Shielding == "microstrip" {
				sh = geom.ShieldMicrostrip
			}
			out[i] = core.Segment{
				Length:      units.Um(s.LengthUm),
				SignalWidth: units.Um(s.SignalWidthUm),
				GroundWidth: units.Um(s.GroundWidthUm),
				Spacing:     units.Um(s.SpacingUm),
				Shielding:   sh,
			}
		}
		return out
	}

	var (
		mu  sync.Mutex
		lat []time.Duration
	)
	err = fanout(ctx, n, c, func(i int) error {
		segs := toCore(segments(batch, i))
		t0 := time.Now()
		if _, err := ext.SegmentsRLCCtx(ctx, segs); err != nil {
			return err
		}
		d := time.Since(t0)
		mu.Lock()
		lat = append(lat, d)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return percentile(lat, 50), nil
}
