package cliobs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
)

// Conventional exit codes shared by all five cmds. Interrupted runs
// exit 128+signal (the shell convention), so scripts driving the
// tools can distinguish "the work failed" from "I stopped it".
// ExitUsage is the status the flag package uses for a flag it cannot
// parse; ExitCode returns it for ErrBadFlag too.
const (
	ExitOK      = 0
	ExitFailure = 1
	ExitUsage   = 2
	ExitSIGINT  = 128 + 2  // 130
	ExitSIGTERM = 128 + 15 // 143
)

// ErrBadFlag marks a flag value a cmd cannot run with. Cmds check
// their flags before any work and wrap this error, naming the flag.
var ErrBadFlag = errors.New("bad flag")

// CheckPositiveFlag refuses a -name value that is not a finite
// positive number.
func CheckPositiveFlag(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 1) {
		return fmt.Errorf("%w: -%s %g (want a finite positive number)", ErrBadFlag, name, v)
	}
	return nil
}

// CheckAxisFlags validates the flags of one log-spaced sweep axis: at
// least two points (-count) and 0 < -lo < -hi, both finite.
func CheckAxisFlags(lo string, min float64, hi string, max float64, count string, n int) error {
	if n < 2 {
		return fmt.Errorf("%w: -%s %d (want at least 2)", ErrBadFlag, count, n)
	}
	if err := CheckPositiveFlag(lo, min); err != nil {
		return err
	}
	if !(max > min) || math.IsInf(max, 1) {
		return fmt.Errorf("%w: -%s %g (want finite and above -%s %g)", ErrBadFlag, hi, max, lo, min)
	}
	return nil
}

// Shutdown is a cmd's graceful-termination state: a context cancelled
// by the first SIGINT/SIGTERM, a record of which signal arrived (for
// the exit code), and a hard-exit path for an impatient second
// signal. The intended flow is cancel → the pipeline drains (every
// ctx-aware loop returns context.Canceled within one unit of work) →
// the cliobs Session flushes its trace/metrics sinks → the process
// exits with a distinct code.
type Shutdown struct {
	ctx    context.Context
	cancel context.CancelFunc
	sig    atomic.Int32
	quit   chan struct{}
	ch     chan os.Signal
}

// NotifyShutdown installs the SIGINT/SIGTERM handler and returns the
// Shutdown whose Context the cmd threads through its work. A second
// signal skips draining and exits immediately with 128+signal — the
// escape hatch when a drain itself wedges.
func NotifyShutdown() *Shutdown {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Shutdown{ctx: ctx, cancel: cancel, quit: make(chan struct{}), ch: make(chan os.Signal, 2)}
	signal.Notify(s.ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-s.ch:
			s.sig.Store(int32(signalNumber(sig)))
			cancel()
		case <-s.quit:
			return
		}
		select {
		case sig := <-s.ch:
			os.Exit(128 + signalNumber(sig))
		case <-s.quit:
		}
	}()
	return s
}

// Context is cancelled by the first SIGINT/SIGTERM (or Stop).
func (s *Shutdown) Context() context.Context { return s.ctx }

// Stop uninstalls the handler and releases the watcher goroutine;
// defer it from main after the run returns.
func (s *Shutdown) Stop() {
	signal.Stop(s.ch)
	select {
	case <-s.quit:
	default:
		close(s.quit)
	}
	s.cancel()
}

// Signaled reports the signal number that triggered shutdown (0 if
// none arrived).
func (s *Shutdown) Signaled() int { return int(s.sig.Load()) }

// ExitCode maps a run's outcome to the process exit code: 0 for
// success, ExitUsage for ErrBadFlag, 128+signal when a signal
// cancelled the run (the error is the cancellation surfacing), 1 for
// genuine failures.
func (s *Shutdown) ExitCode(err error) int {
	if err == nil {
		return ExitOK
	}
	if errors.Is(err, ErrBadFlag) {
		return ExitUsage
	}
	if n := s.Signaled(); n != 0 &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return 128 + n
	}
	return ExitFailure
}

func signalNumber(sig os.Signal) int {
	if s, ok := sig.(syscall.Signal); ok {
		return int(s)
	}
	return 2 // os.Interrupt on any platform is SIGINT-equivalent
}
