package table

// Chaos matrix for the build/cache/lookup pipeline: every injection
// point exercised in every mode, plus the cancellation and
// graceful-degradation guarantees the fault layer exists to provide.
// All tests run under -race via the Makefile chaos target.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"clockrlc/internal/fault"
)

// chaosConfig is a deliberately tiny sweep so every test pays a
// fraction of a second, not a field-solver campaign.
func chaosConfig() (Config, Axes) {
	cfg := freeConfig()
	axes := Axes{
		Widths:   LogAxis(1e-6, 8e-6, 2),
		Spacings: LogAxis(1e-6, 4e-6, 2),
		Lengths:  LogAxis(100e-6, 2000e-6, 3),
	}
	return cfg, axes
}

func encodeSet(t *testing.T, s *Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveV3(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestInjectedSolverErrorFailsBuild(t *testing.T) {
	cfg, axes := chaosConfig()
	fault.Register(fault.NewInjector(1, fault.Rule{
		Point: fault.SolverCall, Mode: fault.ModeError, Nth: 2,
	}))
	defer fault.Reset()
	if _, err := BuildCtx(context.Background(), cfg, axes, nil); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
}

func TestTransientSolverErrorIsRetriedToSuccess(t *testing.T) {
	cfg, axes := chaosConfig()
	clean, err := BuildCtx(context.Background(), cfg, axes, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeSet(t, clean)

	retries0, _ := fault.RetryStats()
	// Two transient failures, both inside the per-cell retry budget of
	// three attempts.
	fault.Register(fault.NewInjector(1, fault.Rule{
		Point: fault.SolverCall, Mode: fault.ModeError,
		Nth: 3, Transient: true, Times: 1,
	}, fault.Rule{
		Point: fault.SolverCall, Mode: fault.ModeError,
		Nth: 7, Transient: true, Times: 1,
	}))
	defer fault.Reset()
	chaotic, err := BuildCtx(context.Background(), cfg, axes, nil)
	if err != nil {
		t.Fatalf("transient errors should be absorbed by retry: %v", err)
	}
	if retries, _ := fault.RetryStats(); retries == retries0 {
		t.Fatal("retry counter did not move")
	}
	if !bytes.Equal(want, encodeSet(t, chaotic)) {
		t.Fatal("build with retried transients is not bit-identical to the clean build")
	}
}

func TestPersistentTransientSolverErrorExhaustsRetries(t *testing.T) {
	cfg, axes := chaosConfig()
	// Every solver call fails transiently: the retry budget runs out
	// and the exhausted error surfaces, still marked transient.
	fault.Register(fault.NewInjector(1, fault.Rule{
		Point: fault.SolverCall, Mode: fault.ModeError,
		Prob: 1, Transient: true,
	}))
	defer fault.Reset()
	_, err := BuildCtx(context.Background(), cfg, axes, nil)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("want exhausted injected error, got %v", err)
	}
}

func TestInjectedWorkerPanicSurfacesAsCellPanic(t *testing.T) {
	cfg, axes := chaosConfig()
	cfg.Workers = 4
	fault.Register(fault.NewInjector(1, fault.Rule{
		Point: fault.SolverCall, Mode: fault.ModePanic, Nth: 2,
	}))
	defer fault.Reset()
	_, err := BuildCtx(context.Background(), cfg, axes, nil)
	var cp *CellPanic
	if !errors.As(err, &cp) {
		t.Fatalf("want *CellPanic, got %v", err)
	}
	if cp.Cell < 0 {
		t.Fatalf("cell index not recorded: %+v", cp)
	}
	ip, ok := cp.Value.(*fault.InjectedPanic)
	if !ok {
		t.Fatalf("panic value %T is not the injected payload", cp.Value)
	}
	if ip.Point != fault.SolverCall {
		t.Fatalf("panic payload names %s, want %s", ip.Point, fault.SolverCall)
	}
	if len(cp.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
}

func TestInjectedLatencySlowsButDoesNotFail(t *testing.T) {
	cfg, axes := chaosConfig()
	const delay = 5 * time.Millisecond
	fault.Register(fault.NewInjector(1, fault.Rule{
		Point: fault.SolverCall, Mode: fault.ModeLatency,
		Nth: 1, Delay: delay,
	}))
	defer fault.Reset()
	t0 := time.Now()
	if _, err := BuildCtx(context.Background(), cfg, axes, nil); err != nil {
		t.Fatalf("latency injection must not fail the build: %v", err)
	}
	if took := time.Since(t0); took < delay {
		t.Fatalf("build took %v, expected at least the injected %v", took, delay)
	}
}

func TestInjectedLookupError(t *testing.T) {
	cfg, axes := chaosConfig()
	set, err := BuildCtx(context.Background(), cfg, axes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.SelfL(2e-6, 500e-6); err != nil {
		t.Fatalf("clean lookup failed: %v", err)
	}
	fault.Register(fault.NewInjector(1, fault.Rule{
		Point: fault.SplineLookup, Mode: fault.ModeError, Prob: 1,
	}))
	defer fault.Reset()
	if _, err := set.SelfL(2e-6, 500e-6); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("SelfL: want ErrInjected, got %v", err)
	}
	if _, err := set.MutualL(2e-6, 2e-6, 1.5e-6, 500e-6); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("MutualL: want ErrInjected, got %v", err)
	}
}

// goroutines settles transient runtime goroutines before counting, so
// the leak assertion is not fooled by a scheduler still winding down.
func goroutines() int {
	for i := 0; i < 50; i++ {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

func TestBuildCancellationIsPromptAndLeakFree(t *testing.T) {
	cfg, axes := chaosConfig()
	cfg.Workers = 4
	// Stretch each cell so the cancel reliably lands mid-sweep.
	fault.Register(fault.NewInjector(1, fault.Rule{
		Point: fault.SolverCall, Mode: fault.ModeLatency,
		Prob: 1, Delay: 2 * time.Millisecond,
	}))
	defer fault.Reset()

	before := goroutines()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err := BuildCtx(ctx, cfg, axes, nil)
	took := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The acceptance bound is "within one sweep cell's duration" of the
	// cancel; with 2ms cells and a 5ms cancel, a generous ceiling still
	// catches a build that ran the remaining sweep to completion.
	if took > time.Second {
		t.Fatalf("cancelled build returned after %v", took)
	}
	// All workers must have drained: the goroutine count returns to its
	// pre-build baseline.
	deadline := time.Now().Add(2 * time.Second)
	for goroutines() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := goroutines(); got > before {
		t.Fatalf("goroutine leak after cancelled build: %d before, %d after", before, got)
	}
}

func TestCacheGracefulDegradation(t *testing.T) {
	cfg, axes := chaosConfig()
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Prime the cache, then corrupt the stored entry in place.
	clean, err := cache.GetOrBuildCtx(context.Background(), cfg, axes, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeSet(t, clean)
	key, err := CacheKey(cfg, axes)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.Path(key), []byte(`{"truncated":`), 0o644); err != nil {
		t.Fatal(err)
	}

	// One transient read hiccup on top of the corruption: the read is
	// retried, still loads garbage, and the cache degrades to a rebuild
	// whose bytes match the original build exactly.
	_, _, _, corrupt0 := CacheStats()
	fault.Register(fault.NewInjector(1, fault.Rule{
		Point: fault.CacheRead, Mode: fault.ModeError,
		Nth: 1, Transient: true, Times: 1,
	}))
	defer fault.Reset()
	rebuilt, err := cache.GetOrBuildCtx(context.Background(), cfg, axes, nil)
	if err != nil {
		t.Fatalf("degraded read must rebuild, not fail: %v", err)
	}
	if !bytes.Equal(want, encodeSet(t, rebuilt)) {
		t.Fatal("rebuild after corruption is not bit-identical to the original build")
	}
	if _, _, _, corrupt := CacheStats(); corrupt == corrupt0 {
		t.Fatal("corrupt entry was not counted")
	}
	// The rebuild re-persisted the entry; a clean process sees a hit.
	fault.Reset()
	if _, ok, err := cache.GetCtx(context.Background(), cfg, axes); err != nil || !ok {
		t.Fatalf("entry not healed: ok=%v err=%v", ok, err)
	}
}

func TestCacheWriteFailureDegradesToUnpersistedSet(t *testing.T) {
	cfg, axes := chaosConfig()
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Every write attempt fails transiently: the retry budget is spent,
	// but the freshly built set is still returned — only persistence is
	// lost.
	fault.Register(fault.NewInjector(1, fault.Rule{
		Point: fault.CacheWrite, Mode: fault.ModeError,
		Prob: 1, Transient: true,
	}))
	defer fault.Reset()
	set, err := cache.GetOrBuildCtx(context.Background(), cfg, axes, nil)
	if err != nil {
		t.Fatalf("write-back failure must not fail the extraction: %v", err)
	}
	if set == nil {
		t.Fatal("no set returned")
	}
	fault.Reset()
	if _, ok, err := cache.GetCtx(context.Background(), cfg, axes); err != nil || ok {
		t.Fatalf("entry should not have been persisted: ok=%v err=%v", ok, err)
	}
}

func TestGetOrBuildCtxHonoursPreCancelledContext(t *testing.T) {
	cfg, axes := chaosConfig()
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cache.GetOrBuildCtx(ctx, cfg, axes, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
