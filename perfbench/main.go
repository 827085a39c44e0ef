// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload per invocation against the public functions of
// the internal packages, in a single process:
//
//	tree_imbalanced     level-4 buffered H-tree, 256 seeded sink loads, RC + RLC analysis
//	characterize        cold coplanar/microstrip/stripline table builds, v3 save, reopen
//	serve_interactive   in-process HTTP server, 1 client, batch 8 (closed loop)
//
// With -trace 0 it times the workload with tracing off and prints the
// end-to-end metrics; with -trace 1 it runs untraced and traced passes,
// rolls the traced spans up per layer and runs the per-layer probes.
// Either way it checks the outputs and prints one JSON result object
// as the last line of standard output. Run it from the repository
// root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload tree_imbalanced --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/obs"
)

// defaultSeed is the seed whose tree outputs are pinned in golden.json.
const defaultSeed = 1

// passStats accumulates what the timed passes of one run did.
type passStats struct {
	// ops are the latencies of the workload's user-facing operations.
	ops []time.Duration
	// attempted and failed count operations; a refused or failed
	// operation is failed.
	attempted, failed int
}

// job is a set-up workload, ready to run passes.
type job interface {
	// pass runs one fixed unit of the workload's work; passes of one
	// job are identical, so per-pass counts repeat exactly.
	pass(ctx context.Context, ps *passStats) error
	// verify checks every output the passes produced, outside the
	// timed interval. It returns the number of checks made and a
	// description of each mismatch.
	verify(ctx context.Context) (checked int, mismatches []string)
	close()
}

// workload describes one benchmark workload.
type workload struct {
	name string
	// setups is how many times a run sets the workload up; the median
	// is reported as setup_s and the last set-up is measured.
	setups int
	// tracePairs is how many pairs of an untraced and a traced pass a
	// traced run compares.
	tracePairs int
	setup      func(ctx context.Context, seed int64, dir string) (job, error)
}

var workloads = []workload{
	{name: "tree_imbalanced", setups: 5, tracePairs: 3, setup: setupTree},
	{name: "characterize", setups: 21, tracePairs: 5, setup: setupCharacterize},
	{name: "serve_interactive", setups: 5, tracePairs: 9, setup: setupServeInteractive},
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload `name`")
	seed := flag.Int64("seed", defaultSeed, "input generator seed")
	seconds := flag.Int("seconds", 20, "measured `seconds` per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("bad -seconds %d or -trace %d", seconds, trace)
	}
	// The CLIs' default invariant policy: violations are counted, not
	// fatal, so check.violations is reported as the program finds it.
	check.SetPolicy(check.Warn)
	ctx := context.Background()

	host, err := json.Marshal(map[string]any{"host": fingerprint()})
	if err != nil {
		return err
	}
	fmt.Println(string(host))

	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var setupTimes []time.Duration
	var j job
	for i := 0; i < w.setups; i++ {
		if j != nil {
			j.close()
		}
		sub := filepath.Join(dir, "setup"+strconv.Itoa(i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		j, err = w.setup(ctx, seed, sub)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0))
	}
	defer j.close()

	var res result
	if trace == 0 {
		res, err = timedRun(ctx, w, j, time.Duration(seconds)*time.Second)
		if err != nil {
			return err
		}
		res.Metrics["setup_s"] = metric{median(setupTimes).Seconds(), "s"}
	} else {
		res, err = tracedRun(ctx, w, j, dir)
		if err != nil {
			return err
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// timedRun repeats passes with tracing off until the measured time is
// spent, then checks the outputs and reduces the end-to-end metrics.
func timedRun(ctx context.Context, w *workload, j job, budget time.Duration) (result, error) {
	if err := resetPeakRSS(); err != nil {
		return result{}, err
	}
	var ps passStats
	for t0 := time.Now(); time.Since(t0) < budget; {
		if err := j.pass(ctx, &ps); err != nil {
			return result{}, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	rss := peakRSSMB()
	res := verified(ctx, j, &ps)
	res.Metrics = map[string]metric{
		"latency_ms":  {ms(median(ps.ops)), "ms"},
		"peak_rss_mb": {rss, "MB"},
	}
	return res, nil
}

// verified runs the output checks and folds them into the result's
// counts: each check is an attempted operation, each mismatch a
// failed one.
func verified(ctx context.Context, j job, ps *passStats) result {
	checked, mismatches := j.verify(ctx)
	for _, m := range mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", m)
	}
	res := result{
		Attempted: ps.attempted + checked,
		Failed:    ps.failed + len(mismatches),
	}
	res.Correct = res.Failed == 0
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (mean of the middle two).
func median[T time.Duration | float64](ds []T) T {
	s := append([]T(nil), ds...)
	sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// resetPeakRSS returns the set-ups' garbage to the OS and resets the
// process's peak resident set to its current one, so that peakRSSMB
// covers only what follows.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	return float64(kb) / 1024
}

// procField returns the first integer after key in a /proc text file
// (0 when absent).
func procField(path, key string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key) {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, key))
		if len(fields) == 0 {
			return 0
		}
		v, _ := strconv.ParseInt(fields[0], 10, 64)
		return v
	}
	return 0
}

// fingerprint identifies the host a result was measured on; results
// are comparable only between equal fingerprints.
func fingerprint() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernel,
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// counterDelta snapshots process-wide counters so a section's counts
// can be taken as differences.
type counterDelta map[string]int64

func snapshotCounters(names ...string) counterDelta {
	d := counterDelta{}
	for _, n := range names {
		d[n] = obs.GetCounter(n).Value()
	}
	return d
}

func (d counterDelta) since(name string) int64 { return obs.GetCounter(name).Value() - d[name] }
