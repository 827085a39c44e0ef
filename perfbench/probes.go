package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/loop"
	"clockrlc/internal/netlist"
	"clockrlc/internal/resist"
	"clockrlc/internal/serve"
	"clockrlc/internal/sim"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// Layer probes: fixed, seed-independent kernels that time one layer
// each through its public functions, run untraced after every traced
// pass so that every workload reports every per-layer metric. The
// shares and counts of the traced pass say which layer a workload
// spends its time in; the probes say how fast that layer is.

// probeRisePs is the rise time every probe extracts at.
const probeRisePs = 50

// timeMedian runs fn n times and returns the median duration.
func timeMedian(n int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t0)
	}
	return median(ds), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func perItemNs(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// processCPU is the process's user + system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func runProbes(ctx context.Context, dir string, m map[string]metric) error {
	tech := nominalTech()
	sets, err := probeBuilds(ctx, tech, m)
	if err != nil {
		return err
	}
	if err := probeLoop(sets[geom.ShieldMicrostrip].Config, m); err != nil {
		return err
	}
	cache, err := table.NewCache(filepath.Join(dir, "probe-cache"))
	if err != nil {
		return err
	}
	if err := probeCodec(ctx, cache, sets[geom.ShieldMicrostrip], m); err != nil {
		return err
	}
	if err := probeLookup(sets[geom.ShieldMicrostrip], m); err != nil {
		return err
	}
	ext, err := core.NewExtractorFromTables(tech, units.SignificantFrequency(probeRisePs*units.PicoSecond),
		sets[geom.ShieldNone], sets[geom.ShieldMicrostrip])
	if err != nil {
		return err
	}
	if err := probeCore(ctx, ext, m); err != nil {
		return err
	}
	if err := probeSim(ctx, ext, m); err != nil {
		return err
	}
	// The codec probe wrote the microstrip set; add coplanar so the
	// probe server's registry fills both keys from the cache.
	if err := cache.PutCtx(ctx, sets[geom.ShieldNone]); err != nil {
		return err
	}
	return probeServe(ctx, cache, ext, m)
}

// probeBuilds builds one cold set per shielding (table.build_s.*),
// with the CPU time per field solve and the worker pool's CPU
// utilisation over all three.
func probeBuilds(ctx context.Context, tech core.Technology, m map[string]metric) (map[geom.Shielding]*table.Set, error) {
	sets := map[geom.Shielding]*table.Set{}
	var wall time.Duration
	cpu0 := processCPU()
	solves := snapshotCounters("table.solver_calls")
	for _, sh := range shieldings {
		t0 := time.Now()
		set, err := table.BuildCtx(ctx, tableConfig(tech, sh, probeRisePs), table.DefaultAxes(), nil)
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		wall += d
		sets[sh] = set
		m["table.build_s."+sh.String()] = metric{d.Seconds(), "s"}
	}
	cpu := processCPU() - cpu0
	m["table.solve_ms"] = metric{ms(cpu) / float64(solves.since("table.solver_calls")), "ms"}
	m["table.build_cpu_util"] = metric{cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0))), "frac"}
	return sets, nil
}

// probeLoop times loop.SolveBlock on a 1-trace and a 2-trace
// microstrip block shaped like mid-axis table cells.
func probeLoop(cfg table.Config, m map[string]metric) error {
	w, sp, l := units.Um(2), units.Um(2), units.Um(1000)
	opts := loop.Options{Frequency: cfg.Frequency, PlaneStrips: cfg.PlaneStrips, SubW: cfg.SubW, SubT: cfg.SubT}
	for _, p := range []struct {
		metric string
		blk    *geom.Block
	}{
		{"loop.solve_self_us", cellBlock(cfg, l, sp, w)},
		{"loop.solve_mutual_us", cellBlock(cfg, l, sp, w, units.Um(5))},
	} {
		d, err := timeMedian(5, func() error { _, err := loop.SolveBlock(p.blk, 0, opts); return err })
		if err != nil {
			return err
		}
		m[p.metric] = metric{us(d), "us"}
	}
	return nil
}

// cellBlock lays out signal traces of the given widths, sp apart edge
// to edge, over a microstrip plane a plane gap below, sized from the
// footprint as a table cell's is.
func cellBlock(cfg table.Config, l, sp float64, widths ...float64) *geom.Block {
	blk := &geom.Block{Rho: cfg.Rho}
	y, footprint := 0.0, 0.0
	for i, w := range widths {
		if i > 0 {
			y += widths[i-1]/2 + sp + w/2
			footprint += sp
		}
		footprint += w
		blk.Traces = append(blk.Traces, geom.Trace{Y: y, Z: cfg.Thickness / 2, Length: l, Width: w, Thickness: cfg.Thickness})
		blk.IsGround = append(blk.IsGround, false)
	}
	blk.PlaneBelow = &geom.GroundPlane{Z: -cfg.PlaneGap - cfg.PlaneThickness/2, Thickness: cfg.PlaneThickness,
		Width: 3*footprint + 20*cfg.PlaneGap, Rho: cfg.Rho}
	return blk
}

// probeCodec times a v3 cache write, a reopen of the written file and
// a cache hit.
func probeCodec(ctx context.Context, cache *table.Cache, set *table.Set, m map[string]metric) error {
	d, err := timeMedian(3, func() error { return cache.PutCtx(ctx, set) })
	if err != nil {
		return err
	}
	m["table.save_ms"] = metric{ms(d), "ms"}
	key, err := table.CacheKey(set.Config, set.Axes)
	if err != nil {
		return err
	}
	d, err = timeMedian(9, func() error {
		s, err := table.LoadFile(cache.Path(key))
		if err != nil {
			return err
		}
		return s.Close()
	})
	if err != nil {
		return err
	}
	m["table.open_us"] = metric{us(d), "us"}
	d, err = timeMedian(9, func() error {
		s, ok, err := cache.GetCtx(ctx, set.Config, set.Axes)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("cache miss on a written key")
		}
		return s.Close()
	})
	if err != nil {
		return err
	}
	m["table.cache_get_us"] = metric{us(d), "us"}
	return nil
}

// probeSegments draws a fixed batch of n segments.
func probeSegments(n int) []core.Segment {
	req := randomBatch(rand.New(rand.NewSource(int64(n))), n)
	return coreSegments(req.Segments)
}

// probeLookup times batch self and mutual lookups per query.
func probeLookup(set *table.Set, m map[string]metric) error {
	const n = 1024
	rng := rand.New(rand.NewSource(7))
	w1, w2, sp, l, out := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		w1[i] = units.Um(logUniform(rng, 0.8, 15))
		w2[i] = units.Um(logUniform(rng, 0.8, 15))
		sp[i] = units.Um(logUniform(rng, 0.7, 30))
		l[i] = units.Um(logUniform(rng, 60, 7000))
	}
	d, err := timeMedian(21, func() error { return set.SelfLBatch(w1, l, out) })
	if err != nil {
		return err
	}
	m["table.self_lookup_ns"] = metric{perItemNs(d, n), "ns"}
	d, err = timeMedian(21, func() error { return set.MutualLBatch(w1, w2, sp, l, out) })
	if err != nil {
		return err
	}
	m["table.mutual_lookup_ns"] = metric{perItemNs(d, n), "ns"}
	return nil
}

// probeCore times batch extraction at the two serve batch sizes and
// its R/C and loop-L parts per segment.
func probeCore(ctx context.Context, ext *core.Extractor, m map[string]metric) error {
	b8, b1024 := probeSegments(8), probeSegments(1024)
	d, err := timeMedian(201, func() error { _, err := ext.SegmentsRLCCtx(ctx, b8); return err })
	if err != nil {
		return err
	}
	m["core.batch_ns_per_segment.b8"] = metric{perItemNs(d, len(b8)), "ns"}
	d, err = timeMedian(11, func() error { _, err := ext.SegmentsRLCCtx(ctx, b1024); return err })
	if err != nil {
		return err
	}
	m["core.batch_ns_per_segment.b1024"] = metric{perItemNs(d, len(b1024)), "ns"}
	d, err = timeMedian(5, func() error {
		for _, s := range b1024 {
			if _, err := resist.ACSkinArea(s.Length, s.SignalWidth, ext.Tech.Thickness, ext.Tech.Rho, ext.Frequency); err != nil {
				return err
			}
			if _, err := ext.SegmentCap(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["core.rc_ns_per_segment"] = metric{perItemNs(d, len(b1024)), "ns"}
	d, err = timeMedian(11, func() error { _, err := ext.LoopLBatchCtx(ctx, b1024); return err })
	if err != nil {
		return err
	}
	m["core.loopl_ns_per_segment"] = metric{perItemNs(d, len(b1024)), "ns"}
	return nil
}

// stageNetlist builds a tree-stage-shaped netlist the way a clocktree
// stage does: a ramp driver, two trunk and four arm ladders of six
// sections, four sink loads.
func stageNetlist(trunk, arm netlist.SegmentRLC, h float64) (*netlist.Netlist, []string, error) {
	nl := netlist.New()
	nl.AddV("vsrc", "drv", netlist.Ground, netlist.Ramp{V0: 0, V1: 1, Start: h, Rise: 50 * units.PicoSecond})
	nl.AddR("rdrv", "drv", "r", 40)
	for _, side := range []string{"L", "R"} {
		if _, err := nl.AddLadder("t"+side, "r", side, trunk, 6); err != nil {
			return nil, nil, err
		}
	}
	sinks := []string{"s0", "s1", "s2", "s3"}
	for i, s := range sinks {
		if _, err := nl.AddLadder("a"+s, []string{"L", "L", "R", "R"}[i], s, arm, 6); err != nil {
			return nil, nil, err
		}
		nl.AddC("c"+s, s, netlist.Ground, 50*units.FemtoFarad)
	}
	return nl, sinks, nil
}

// probeSim times one RC and one RLC stage transient of a leaf-level
// stage, and counts the RLC transient's allocations per step.
func probeSim(ctx context.Context, ext *core.Extractor, m map[string]metric) error {
	seg := core.Segment{SignalWidth: units.Um(10), GroundWidth: units.Um(5), Spacing: units.Um(1), Shielding: geom.ShieldNone}
	h, stop := 0.5*units.PicoSecond, 2000*units.PicoSecond
	for _, withL := range []bool{false, true} {
		extract := ext.SegmentRCOnlyCtx
		name, reps := "rc", 5
		if withL {
			extract = ext.SegmentRLCCtx
			name, reps = "rlc", 3
		}
		trunkSeg, armSeg := seg, seg
		trunkSeg.Length, armSeg.Length = units.Um(500), units.Um(250)
		trunk, err := extract(ctx, trunkSeg)
		if err != nil {
			return err
		}
		arm, err := extract(ctx, armSeg)
		if err != nil {
			return err
		}
		nl, sinks, err := stageNetlist(trunk, arm, h)
		if err != nil {
			return err
		}
		steps := snapshotCounters("sim.steps")
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		d, err := timeMedian(reps, func() error { _, err := sim.TransientCtx(ctx, nl, h, stop, sinks); return err })
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms1)
		n := float64(steps.since("sim.steps"))
		m["sim.transient_ms."+name] = metric{ms(d), "ms"}
		if withL {
			m["sim.ns_per_step.rlc"] = metric{float64(d.Nanoseconds()) / (n / float64(reps)), "ns"}
			m["sim.allocs_per_step.rlc"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / n, "count"}
		}
	}
	return nil
}

// probeServe times the serving layer: client latency of a batch-8
// request against a warm in-process server minus in-process
// extraction of the same batch, JSON decode of a 1024-segment request
// and encode of its response, and a warm registry acquire.
func probeServe(ctx context.Context, cache *table.Cache, ext *core.Extractor, m map[string]metric) error {
	srv, err := serve.New(serve.Config{Tech: nominalTech(), Cache: cache})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()

	rng := rand.New(rand.NewSource(8))
	req8 := randomBatch(rng, 8)
	req8.RiseTimePs = probeRisePs
	body8, err := json.Marshal(req8)
	if err != nil {
		return err
	}
	url := "http://" + ln.Addr().String() + "/v1/batch"
	post := func() error {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body8))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("probe request: status %d", resp.StatusCode)
		}
		return nil
	}
	if _, err := timeMedian(20, post); err != nil {
		return err
	}
	client8, err := timeMedian(301, post)
	if err != nil {
		return err
	}
	segs8 := coreSegments(req8.Segments)
	// The server extracts with its default policy, checks off.
	ext.Configure(core.WithChecks(check.Off))
	inproc8, err := timeMedian(301, func() error { _, err := ext.SegmentsRLCCtx(ctx, segs8); return err })
	if err != nil {
		return err
	}
	m["serve.overhead_us.b8"] = metric{us(client8 - inproc8), "us"}

	req1024 := randomBatch(rng, 1024)
	body1024, err := json.Marshal(req1024)
	if err != nil {
		return err
	}
	d, err := timeMedian(11, func() error {
		var r serve.BatchRequest
		dec := json.NewDecoder(bytes.NewReader(body1024))
		dec.DisallowUnknownFields()
		return dec.Decode(&r)
	})
	if err != nil {
		return err
	}
	m["serve.json_decode_us.b1024"] = metric{us(d), "us"}
	out, err := ext.SegmentsRLCCtx(ctx, coreSegments(req1024.Segments))
	if err != nil {
		return err
	}
	resp := serve.BatchResponse{Results: make([]serve.SegmentResult, len(out))}
	for i, rlc := range out {
		resp.Results[i] = serve.SegmentResult{ROhm: rlc.R, LH: rlc.L, CF: rlc.C}
	}
	var buf bytes.Buffer
	d, err = timeMedian(11, func() error { buf.Reset(); return json.NewEncoder(&buf).Encode(resp) })
	if err != nil {
		return err
	}
	m["serve.json_encode_us.b1024"] = metric{us(d), "us"}

	cfg := tableConfig(nominalTech(), geom.ShieldMicrostrip, probeRisePs)
	const acquires = 1000
	d, err = timeMedian(5, func() error {
		for i := 0; i < acquires; i++ {
			_, release, err := srv.Registry().Acquire(ctx, cfg, table.DefaultAxes())
			if err != nil {
				return err
			}
			release()
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["serve.registry_acquire_us"] = metric{us(d) / acquires, "us"}
	return nil
}
