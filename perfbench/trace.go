package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"clockrlc/internal/obs"
)

// The traced run: after a warm-up pass, untraced and traced passes
// alternate in pairs, the traced ones recording into an in-memory sink on the default observer. That
// turns on the spans the program already emits (sim.transient,
// clocktree.stage, table.build, core.batch, table.lookup, serve.batch,
// ...) under the harness's own bench.* spans around each public call.
// The spans are rolled up into self time per layer.

// layers are the rollup's layers, in report order.
var layers = []string{"sim", "clocktree", "core", "table.lookup", "table.build", "table.codec", "loop", "serve"}

// layerOf maps a span name to its layer; "" is unattributed (the
// harness's own glue between calls).
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "sim."):
		return "sim"
	case strings.HasPrefix(name, "clocktree."), name == "bench.analyze":
		return "clocktree"
	case strings.HasPrefix(name, "core."):
		return "core"
	case name == "table.lookup":
		return "table.lookup"
	case name == "table.self_cell", name == "table.mutual_cell":
		// A cell span wraps exactly one field solve (loop/peec/linalg).
		return "loop"
	case name == "table.build", name == "bench.build":
		return "table.build"
	case name == "table.cache", name == "bench.save", name == "bench.open":
		return "table.codec"
	case strings.HasPrefix(name, "serve."), name == "bench.client", name == "bench.handler":
		return "serve"
	}
	return ""
}

// countMetrics are the program's own counters, reported per pass.
// They repeat exactly between runs of one seed.
var countMetrics = []struct{ metric, counter string }{
	{"sim.transients", "sim.transients"},
	{"sim.steps", "sim.steps"},
	{"clocktree.stages_simulated", "clocktree.stages"},
	{"clocktree.stages_deduped", "clocktree.stages_deduped"},
	{"table.solves", "table.solver_calls"},
	{"table.lookups_clamped", "table.lookup_clamped"},
	{"check.violations", "check.violations"},
	{"serve.shed", "serve.shed"},
	{"serve.request_errors", "serve.request_errors"},
}

func tracedRun(ctx context.Context, w *workload, j job, dir string) (result, error) {
	var ps passStats
	var plain, traced []time.Duration
	var overheads []float64
	counts := map[string]int64{}
	sink := &obs.MemorySink{}
	o := obs.Default()
	names := make([]string, len(countMetrics))
	for k, c := range countMetrics {
		names[k] = c.counter
	}
	untracedPass := func() (time.Duration, error) {
		t0 := time.Now()
		err := j.pass(ctx, &ps)
		return time.Since(t0), err
	}
	tracedPass := func() (time.Duration, error) {
		before := snapshotCounters(names...)
		o.AddSink(sink)
		pctx, sp := obs.StartCtx(ctx, "bench.pass")
		t0 := time.Now()
		err := j.pass(pctx, &ps)
		d := time.Since(t0)
		sp.End()
		o.RemoveSink(sink)
		for _, c := range countMetrics {
			counts[c.metric] += before.since(c.counter)
		}
		return d, err
	}
	// A discarded pass first, so that neither side pays the warm-up.
	// The pairs then flip their order each time, so that a drift in the
	// host's speed does not favour one side.
	if _, err := untracedPass(); err != nil {
		return result{}, err
	}
	for i := 0; i < w.tracePairs; i++ {
		var p, t time.Duration
		var err error
		if i%2 == 0 {
			if p, err = untracedPass(); err == nil {
				t, err = tracedPass()
			}
		} else {
			if t, err = tracedPass(); err == nil {
				p, err = untracedPass()
			}
		}
		if err != nil {
			return result{}, err
		}
		plain, traced = append(plain, p), append(traced, t)
		overheads = append(overheads, t.Seconds()/p.Seconds()-1)
	}
	res := verified(ctx, j, &ps)
	m := map[string]metric{}
	for _, c := range countMetrics {
		m[c.metric] = metric{float64(counts[c.metric]) / float64(w.tracePairs), "count"}
	}
	sim, dedup := m["clocktree.stages_simulated"].Value, m["clocktree.stages_deduped"].Value
	m["clocktree.dedup_ratio"] = metric{ratio(dedup, sim+dedup), "frac"}
	m["error_rate"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "frac"}
	m["obs.trace_overhead_frac"] = metric{median(overheads), "frac"}

	split, unattributed := rollup(sink.Events())
	for _, l := range layers {
		m[l+".self_frac"] = metric{split[l], "frac"}
	}
	m["trace.unattributed_frac"] = metric{unattributed, "frac"}
	printRollup(w.name, split, unattributed, median(plain), median(traced))

	if err := runProbes(ctx, dir, m); err != nil {
		return result{}, fmt.Errorf("probes: %w", err)
	}
	res.Metrics = m
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rollup reduces recorded events to each layer's share of the summed
// span self time, and the unattributed share. Self time is a span's
// duration minus its children's; where workers run in parallel the
// children's sum exceeds the parent and the shares are of busy time
// summed over workers. Server-side spans are re-parented under the
// client request that carried their id first.
func rollup(events []obs.Event) (map[string]float64, float64) {
	linkServerSpans(events)
	t := obs.BuildTrace(events)
	self := map[string]time.Duration{}
	var total time.Duration
	for _, sp := range t.Spans {
		d := sp.SelfTime()
		self[layerOf(sp.Name)] += d
		total += d
	}
	split := map[string]float64{}
	for _, l := range layers {
		split[l] = ratio(float64(self[l]), float64(total))
	}
	return split, ratio(float64(self[""]), float64(total))
}

// linkServerSpans sets the parent of every bench.handler span to the
// bench.client span whose request id it recorded.
func linkServerSpans(events []obs.Event) {
	clients := map[any]uint64{}
	handlers := map[uint64]any{}
	for _, e := range events {
		if e.Type != obs.EventSpanEnd || e.Attrs == nil {
			continue
		}
		switch e.Name {
		case "bench.client":
			clients[e.Attrs["req"]] = e.Span
		case "bench.handler":
			handlers[e.Span] = e.Attrs["req"]
		}
	}
	for i := range events {
		if id, ok := handlers[events[i].Span]; ok {
			if parent, ok := clients[id]; ok {
				events[i].Parent = parent
			}
		}
	}
}

// printRollup writes the layer split of one traced run to stderr.
func printRollup(name string, split map[string]float64, unattributed float64, plain, traced time.Duration) {
	ls := append([]string(nil), layers...)
	sort.SliceStable(ls, func(a, b int) bool { return split[ls[a]] > split[ls[b]] })
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench: %s layer split of traced self time:", name)
	for _, l := range ls {
		if split[l] > 0 {
			fmt.Fprintf(&b, " %s %.1f%%", l, 100*split[l])
		}
	}
	fmt.Fprintf(&b, "; unattributed %.1f%%; pass %.3fs untraced, %.3fs traced\n",
		100*unattributed, plain.Seconds(), traced.Seconds())
	os.Stderr.WriteString(b.String())
}
