package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clockrlc/internal/cliobs"
)

// fastRetry keeps backoff sleeps microscopic so tests don't wait out
// real Retry-After hints.
var fastRetry = retryOpts{retries: 3, base: time.Millisecond, cap: 5 * time.Millisecond}

func TestDoRequestRetriesShedThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	client := &http.Client{Timeout: time.Second}
	res := doRequest(context.Background(), client, srv.URL, []byte(`{}`), 0, fastRetry)
	if !res.ok {
		t.Fatalf("request failed after retry: status %d", res.status)
	}
	if res.sheds != 1 || res.retries != 1 {
		t.Fatalf("sheds=%d retries=%d, want 1 and 1", res.sheds, res.retries)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
}

func TestDoRequestHonorsRetryAfterCap(t *testing.T) {
	// Retry-After of 60s must be capped at ro.cap, not slept.
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "60")
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	client := &http.Client{Timeout: time.Second}
	t0 := time.Now()
	res := doRequest(context.Background(), client, srv.URL, []byte(`{}`), 1, fastRetry)
	if !res.ok {
		t.Fatalf("request failed: status %d", res.status)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("retry slept %s despite %s cap", d, fastRetry.cap)
	}
	if res.sheds != 0 {
		t.Fatalf("503 counted as shed: sheds=%d", res.sheds)
	}
}

func TestDoRequestTerminalStatusNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad geometry", http.StatusBadRequest)
	}))
	defer srv.Close()

	client := &http.Client{Timeout: time.Second}
	res := doRequest(context.Background(), client, srv.URL, []byte(`{}`), 2, fastRetry)
	if res.ok || res.status != http.StatusBadRequest {
		t.Fatalf("ok=%v status=%d, want terminal 400", res.ok, res.status)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("400 retried: server saw %d calls", got)
	}
	if res.retries != 0 {
		t.Fatalf("retries=%d for a terminal status", res.retries)
	}
}

func TestDoRequestExhaustsRetryBudget(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "overloaded", http.StatusTooManyRequests)
	}))
	defer srv.Close()

	client := &http.Client{Timeout: time.Second}
	res := doRequest(context.Background(), client, srv.URL, []byte(`{}`), 3, fastRetry)
	if res.ok {
		t.Fatal("request succeeded against an always-429 server")
	}
	if res.status != http.StatusTooManyRequests {
		t.Fatalf("terminal status %d, want 429", res.status)
	}
	if want := int64(1 + fastRetry.retries); calls.Load() != want {
		t.Fatalf("server saw %d calls, want %d", calls.Load(), want)
	}
	if res.retries != int64(fastRetry.retries) {
		t.Fatalf("retries=%d, want %d", res.retries, fastRetry.retries)
	}
	if res.sheds != int64(1+fastRetry.retries) {
		t.Fatalf("sheds=%d, want every 429 counted", res.sheds)
	}
}

func TestRunSeparatesErrorsFromPercentiles(t *testing.T) {
	// Requests alternate: even seeds succeed fast, odd seeds fail 422
	// terminally after a deliberate delay. Percentiles must cover the
	// fast successes only, and the failures must land in
	// errors_by_status — not in the latency distribution.
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n%2 == 0 {
			time.Sleep(50 * time.Millisecond)
			http.Error(w, "out of range", http.StatusUnprocessableEntity)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	const n = 20
	rep, err := run(context.Background(), srv.Listener.Addr().String(),
		n, 2, 1, 50, 0 /* no warmup */, false, fastRetry, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != n/2 {
		t.Fatalf("errors=%d, want %d", rep.Errors, n/2)
	}
	if got := rep.ErrorsByStatus["422"]; got != n/2 {
		t.Fatalf("errors_by_status[422]=%d, want %d", got, n/2)
	}
	if rep.Sheds != 0 || rep.Retries != 0 {
		t.Fatalf("sheds=%d retries=%d on a shed-free run", rep.Sheds, rep.Retries)
	}
	// Successful responses return immediately; if the 50ms failures
	// leaked into the distribution p99 would sit at ~50ms.
	if rep.P99Ns > (20 * time.Millisecond).Nanoseconds() {
		t.Fatalf("p99=%s: failed-request latency leaked into percentiles",
			time.Duration(rep.P99Ns))
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	for seed := 0; seed < 8; seed++ {
		for attempt := 0; attempt < 8; attempt++ {
			j := backoffJitter(seed, attempt)
			if j < 0.5 || j >= 1.5 {
				t.Fatalf("jitter(%d,%d)=%v outside [0.5,1.5)", seed, attempt, j)
			}
			if j != backoffJitter(seed, attempt) {
				t.Fatalf("jitter(%d,%d) not deterministic", seed, attempt)
			}
		}
	}
}

// Degenerate workload flags are refused with cliobs.ErrBadFlag before
// any request is sent, and the binary exits 2 for them.
func TestRunRejectsDegenerateFlags(t *testing.T) {
	type args struct {
		n, c, batch, warm int
		tr                float64
	}
	cases := []struct {
		flag, value string
		set         func(*args)
	}{
		{"-n", "0", func(a *args) { a.n = 0 }},
		{"-c", "0", func(a *args) { a.c = 0 }},
		{"-batch", "0", func(a *args) { a.batch = 0 }},
		{"-warm", "-1", func(a *args) { a.warm = -1 }},
		{"-tr", "0", func(a *args) { a.tr = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			a := args{n: 10, c: 2, batch: 8, warm: 0, tr: 50}
			tc.set(&a)
			// An address nothing listens on: the flags must be refused
			// before the first request.
			_, err := run(context.Background(), "127.0.0.1:1", a.n, a.c, a.batch, a.tr, a.warm, false, fastRetry, time.Second)
			if !errors.Is(err, cliobs.ErrBadFlag) || !strings.Contains(err.Error(), tc.flag+" ") {
				t.Fatalf("run = %v, want ErrBadFlag naming %s", err, tc.flag)
			}
			cmd := exec.Command(binary(t), "-addr", "127.0.0.1:1", tc.flag+"="+tc.value)
			out, err := cmd.CombinedOutput()
			if code := cmd.ProcessState.ExitCode(); code != cliobs.ExitUsage {
				t.Fatalf("exit code %d (%v), want %d; output:\n%s", code, err, cliobs.ExitUsage, out)
			}
			if !strings.Contains(string(out), "bad flag: "+tc.flag+" ") || strings.Contains(string(out), "panic:") {
				t.Errorf("stderr does not name %s cleanly:\n%s", tc.flag, out)
			}
		})
	}
}

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// binary builds rlcxload once per test run.
func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "rlcxload-test-*")
		if err != nil {
			buildErr = err
			return
		}
		buildPath = filepath.Join(dir, "rlcxload")
		out, err := exec.Command("go", "build", "-o", buildPath, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildPath
}
