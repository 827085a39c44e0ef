package table

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"clockrlc/internal/obs"
)

// cellPanics counts sweep cells whose body panicked and was converted
// into a CellPanic error instead of crashing the pool.
var cellPanics = obs.GetCounter("table.cell_panics")

// CellPanic is the named error a panicking parallel-sweep cell is
// converted into: the worker recovers, records the cell index and the
// stack at the panic site, and the pool drains cleanly instead of
// crashing the process. Retrieve it with errors.As to learn which
// cell failed.
type CellPanic struct {
	// Cell is the index the body panicked on.
	Cell int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (p *CellPanic) Error() string {
	return fmt.Sprintf("table: sweep cell %d panicked: %v", p.Cell, p.Value)
}

// runCell invokes fn(k), converting a panic into a *CellPanic error.
func runCell(fn func(k int) error, k int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			cellPanics.Inc()
			err = &CellPanic{Cell: k, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(k)
}

// ParallelForCtx runs fn(k) for k in [0, n) on up to workers
// goroutines. Indices are claimed from an atomic cursor, so callers
// that write results by index get deterministic output regardless of
// scheduling. The first error stops further work (in-flight items
// finish) and is returned; a cancelled ctx stops new claims and
// returns ctx.Err() once every worker has drained — the pool never
// leaks a goroutine and returns within one cell's duration of the
// cancellation. A panicking cell is isolated per worker and surfaces
// as a *CellPanic carrying the cell index; the other workers finish
// their in-flight cells normally. workers <= 1 degenerates to a plain
// serial loop with the same cancellation and panic semantics.
func ParallelForCtx(ctx context.Context, n, workers int, fn func(k int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runCell(fn, k); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		cursor   atomic.Int64
		failed   atomic.Bool
		once     sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				select {
				case <-done:
					return
				default:
				}
				k := int(cursor.Add(1)) - 1
				if k >= n {
					return
				}
				if err := runCell(fn, k); err != nil {
					once.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
