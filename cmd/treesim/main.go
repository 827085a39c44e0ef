// Command treesim builds a buffered H-tree clock network (the paper's
// Fig. 7 application), extracts every segment with the table-based
// flow, analyses the tree with the streaming memoized walk, and
// reports arrival statistics and skew — with and without inductance.
//
// Deep trees are first-class: the walk keeps O(levels) state (no
// 4^levels arrivals slice), dedups identical stage transients, and —
// with -checkpoint — durably saves its position so a crash or SIGKILL
// resumes (-resume) instead of restarting.
//
// Examples:
//
//	treesim -levels 2 -span 4000 -shield coplanar -imbalance 4
//	treesim -levels 10 -mode rlc -checkpoint /var/tmp/ck -resume
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"clockrlc/internal/ckpt"
	"clockrlc/internal/cliobs"
	"clockrlc/internal/clocktree"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// config carries every knob of a treesim run; the flag set fills one
// in main and tests construct them directly.
type config struct {
	levels          int
	span            float64 // µm
	wsig, wgnd      float64 // µm
	space           float64 // µm
	shield          string
	tr              float64 // ps
	rdrv            float64 // Ω
	cin             float64 // fF
	imbalance       float64
	imbalanceSpread int
	mode            string // rc, rlc or both
	samples         int
	cacheDir        string
	lookupPol       string
	ckptDir         string
	resume          bool
	ckptStages      int
	ckptInterval    time.Duration
}

func main() {
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	var cfg config
	flag.IntVar(&cfg.levels, "levels", 2, "buffer levels (leaves = 4^levels)")
	flag.Float64Var(&cfg.span, "span", 4000, "top-level half span (µm)")
	flag.Float64Var(&cfg.wsig, "wsig", 10, "signal width (µm)")
	flag.Float64Var(&cfg.wgnd, "wgnd", 5, "shield width (µm)")
	flag.Float64Var(&cfg.space, "space", 1, "spacing (µm)")
	flag.StringVar(&cfg.shield, "shield", "coplanar", "coplanar or microstrip")
	flag.Float64Var(&cfg.tr, "tr", 50, "buffer output rise time (ps)")
	flag.Float64Var(&cfg.rdrv, "rdrv", 40, "buffer drive resistance (Ω)")
	flag.Float64Var(&cfg.cin, "cin", 50, "buffer input capacitance (fF)")
	flag.Float64Var(&cfg.imbalance, "imbalance", 1, "load multiplier on leaf 0")
	flag.IntVar(&cfg.imbalanceSpread, "imbalance-spread", 0,
		"give the first `n` leaves distinct loads (defeats stage dedup for stress runs)")
	flag.StringVar(&cfg.mode, "mode", "both", "extraction `mode`: rc, rlc or both")
	flag.IntVar(&cfg.samples, "samples", 0, "keep a deterministic reservoir of `n` raw arrivals")
	flag.StringVar(&cfg.cacheDir, "cache", "", "content-addressed table cache directory (reused across runs)")
	flag.StringVar(&cfg.lookupPol, "lookup-policy", "extrapolate",
		"out-of-range table lookup `policy`: extrapolate, clamp or error")
	flag.StringVar(&cfg.ckptDir, "checkpoint", "", "checkpoint `dir`: durably save walk progress for crash recovery")
	flag.BoolVar(&cfg.resume, "resume", false, "resume from the newest valid checkpoint in -checkpoint")
	flag.IntVar(&cfg.ckptStages, "checkpoint-stages", 16, "checkpoint after this many newly simulated stages")
	flag.DurationVar(&cfg.ckptInterval, "checkpoint-interval", 30*time.Second, "checkpoint at least this often")
	flag.Parse()
	sd := cliobs.NotifyShutdown()
	sess, err := obsFlags.Start("treesim")
	if err != nil {
		fmt.Fprintln(os.Stderr, "treesim:", err)
		os.Exit(cliobs.ExitFailure)
	}
	err = run(sess.Context(sd.Context()), cfg)
	sess.Close()
	sd.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "treesim:", err)
		os.Exit(sd.ExitCode(err))
	}
}

func run(ctx context.Context, cfg config) error {
	switch {
	case cfg.levels < 1:
		return fmt.Errorf("%w: -levels %d (want at least 1)", cliobs.ErrBadFlag, cfg.levels)
	case cfg.imbalanceSpread < 0:
		return fmt.Errorf("%w: -imbalance-spread %d (want 0 or more)", cliobs.ErrBadFlag, cfg.imbalanceSpread)
	case cfg.samples < 0:
		return fmt.Errorf("%w: -samples %d (want 0 or more)", cliobs.ErrBadFlag, cfg.samples)
	}
	if err := cliobs.CheckPositiveFlag("tr", cfg.tr); err != nil {
		return err
	}
	var sh geom.Shielding
	switch cfg.shield {
	case "coplanar":
		sh = geom.ShieldNone
	case "microstrip":
		sh = geom.ShieldMicrostrip
	default:
		return fmt.Errorf("%w: -shield %q (want coplanar or microstrip)", cliobs.ErrBadFlag, cfg.shield)
	}
	var modes []bool
	switch cfg.mode {
	case "rc":
		modes = []bool{false}
	case "rlc":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("%w: -mode %q (want rc, rlc or both)", cliobs.ErrBadFlag, cfg.mode)
	}
	lp, err := table.ParseLookupPolicy(cfg.lookupPol)
	if err != nil {
		return fmt.Errorf("-lookup-policy: %w", err)
	}
	if cfg.resume && cfg.ckptDir == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	tech := core.Technology{
		Thickness:      units.Um(2),
		Rho:            units.RhoCopper,
		EpsRel:         units.EpsSiO2,
		CapHeight:      units.Um(2),
		PlaneGap:       units.Um(2),
		PlaneThickness: units.Um(1),
	}
	freq := units.SignificantFrequency(cfg.tr * units.PicoSecond)
	opts := []core.Option{core.WithLookupPolicy(lp)}
	if cfg.cacheDir != "" {
		cache, cerr := table.NewCache(cfg.cacheDir)
		if cerr != nil {
			return cerr
		}
		opts = append(opts, core.WithTableCache(cache))
	} else {
		fmt.Fprintf(os.Stderr, "building %s tables at %.2f GHz...\n", cfg.shield, freq/1e9)
	}
	ext, err := core.NewExtractorCtx(ctx, tech, freq, table.DefaultAxes(), []geom.Shielding{sh}, opts...)
	if err != nil {
		return err
	}
	seg := core.Segment{
		SignalWidth: units.Um(cfg.wsig),
		GroundWidth: units.Um(cfg.wgnd),
		Spacing:     units.Um(cfg.space),
		Shielding:   sh,
	}
	buf := clocktree.Buffer{
		DriveRes:       cfg.rdrv,
		InputCap:       cfg.cin * units.FemtoFarad,
		IntrinsicDelay: 30 * units.PicoSecond,
		OutSlew:        cfg.tr * units.PicoSecond,
	}
	tree, err := clocktree.NewTree(clocktree.HTreeLevels(units.Um(cfg.span), cfg.levels, seg), buf, ext)
	if err != nil {
		return err
	}
	loads := map[int]float64{}
	if cfg.imbalance != 1 {
		loads[0] = cfg.imbalance
	}
	// Distinct loads defeat stage dedup on purpose: crash/kill drills
	// need a run with many real transients to interrupt.
	for i := 0; i < cfg.imbalanceSpread; i++ {
		loads[i] = 1 + 0.05*float64(i+1)
	}
	sims := obs.GetCounter("clocktree.stages")
	for _, withL := range modes {
		if err := ctx.Err(); err != nil {
			return err
		}
		simOpts := clocktree.SimOptions{WithL: withL, LeafLoadScale: loads, SampleCap: cfg.samples}
		var ck *clocktree.Checkpoint
		if cfg.ckptDir != "" {
			store, serr := tree.OpenCheckpoint(cfg.ckptDir, simOpts)
			if serr != nil {
				return serr
			}
			ck = &clocktree.Checkpoint{
				Store:       store,
				EveryStages: cfg.ckptStages,
				Every:       cfg.ckptInterval,
				Resume:      cfg.resume,
			}
		}
		simsBefore := sims.Value()
		start := time.Now()
		stats, err := tree.AnalyzeCtx(ctx, simOpts, ck)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		rep := stats.SkewReport()
		label, mode := "RC only", "rc"
		if withL {
			label, mode = "RLC    ", "rlc"
		}
		fmt.Printf("%s: %d leaves, arrival %.2f–%.2f ps, skew %.3f ps (early leaf %d, late leaf %d)\n",
			label, rep.Leaves, units.ToPS(rep.MinArrival), units.ToPS(rep.MaxArrival),
			units.ToPS(rep.Skew), rep.MinLeaf, rep.MaxLeaf)
		saves, corrupt, _ := ckpt.Stats()
		fmt.Printf("stats mode=%s leaves=%d skew_s=%.17g min_s=%.17g max_s=%.17g min_leaf=%d max_leaf=%d mean_s=%.17g"+
			" simulated=%d deduped=%d sims_this_run=%d resumed_seq=%d"+
			" ckpt_saves=%d ckpt_resumes=%d ckpt_corrupt=%d wall_s=%.3f peak_rss_bytes=%d\n",
			mode, rep.Leaves, rep.Skew, rep.MinArrival, rep.MaxArrival, rep.MinLeaf, rep.MaxLeaf, stats.Mean(),
			stats.StagesSimulated, stats.StagesDeduped, sims.Value()-simsBefore, stats.ResumedSeq,
			saves, obs.GetCounter("ckpt.resumes").Value(), corrupt, wall.Seconds(), peakRSSBytes())
	}
	return nil
}

// peakRSSBytes reads the process peak resident set (VmHWM) from
// /proc/self/status; 0 where the file or field is unavailable.
func peakRSSBytes() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
