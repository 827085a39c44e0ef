package main

import (
	"math"
	"math/rand"

	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/serve"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// Seeded input generators. The program under test only ever sees what
// these return; the same seed gives the same inputs.

// nominalTech is the treesim/rlcxd default technology.
func nominalTech() core.Technology {
	return core.Technology{
		Thickness:      units.Um(2),
		Rho:            units.RhoCopper,
		EpsRel:         units.EpsSiO2,
		CapHeight:      units.Um(2),
		PlaneGap:       units.Um(2),
		PlaneThickness: units.Um(1),
	}
}

// treeLoads draws a distinct load multiplier in [0.5, 1.5) for every
// one of the tree's leaves, so no leaf stage can be deduplicated.
func treeLoads(seed int64, leaves int) map[int]float64 {
	rng := rand.New(rand.NewSource(seed))
	loads := make(map[int]float64, leaves)
	for i := 0; i < leaves; i++ {
		loads[i] = 0.5 + rng.Float64()
	}
	return loads
}

// jitteredTech perturbs the metal thickness (±10 %) and plane gap
// (±20 %) so a characterisation corner is new for every seed.
func jitteredTech(seed int64) core.Technology {
	rng := rand.New(rand.NewSource(seed))
	t := nominalTech()
	t.Thickness *= 0.9 + 0.2*rng.Float64()
	t.PlaneGap *= 0.8 + 0.4*rng.Float64()
	return t
}

// tableConfig is the table identity the CLIs and the server build for
// a technology, shielding and rise time.
func tableConfig(tech core.Technology, sh geom.Shielding, risePs float64) table.Config {
	return table.Config{
		Name:           "perfbench/" + sh.String(),
		Thickness:      tech.Thickness,
		Rho:            tech.Rho,
		Shielding:      sh,
		PlaneGap:       tech.PlaneGap,
		PlaneThickness: tech.PlaneThickness,
		Frequency:      units.SignificantFrequency(risePs * units.PicoSecond),
	}
}

// riseTimesPs are the two rise times every multi-corner workload uses.
var riseTimesPs = []float64{50, 100}

// logUniform draws from [a, b) uniformly in log space.
func logUniform(rng *rand.Rand, a, b float64) float64 {
	return math.Exp(math.Log(a) + rng.Float64()*(math.Log(b)-math.Log(a)))
}

// randomSegment draws a segment whose every table lookup, including
// the ground-to-ground coupling at 2·spacing + signal width, falls
// inside table.DefaultAxes.
func randomSegment(rng *rand.Rand) serve.SegmentRequest {
	sh := "coplanar"
	if rng.Intn(2) == 1 {
		sh = "microstrip"
	}
	return serve.SegmentRequest{
		LengthUm:      logUniform(rng, 60, 7000),
		SignalWidthUm: logUniform(rng, 0.8, 15),
		GroundWidthUm: logUniform(rng, 0.8, 15),
		SpacingUm:     logUniform(rng, 0.7, 9),
		Shielding:     sh,
	}
}

// randomBatch draws one request: a rise time and n segments.
func randomBatch(rng *rand.Rand, n int) serve.BatchRequest {
	req := serve.BatchRequest{
		RiseTimePs: riseTimesPs[rng.Intn(len(riseTimesPs))],
		Segments:   make([]serve.SegmentRequest, n),
	}
	for i := range req.Segments {
		req.Segments[i] = randomSegment(rng)
	}
	return req
}

// coreSegments converts request segments exactly as the server does.
func coreSegments(req []serve.SegmentRequest) []core.Segment {
	segs := make([]core.Segment, len(req))
	for i, sr := range req {
		sh := geom.ShieldNone
		switch sr.Shielding {
		case "microstrip":
			sh = geom.ShieldMicrostrip
		case "stripline":
			sh = geom.ShieldStripline
		}
		segs[i] = core.Segment{
			Length:      units.Um(sr.LengthUm),
			SignalWidth: units.Um(sr.SignalWidthUm),
			GroundWidth: units.Um(sr.GroundWidthUm),
			Spacing:     units.Um(sr.SpacingUm),
			Shielding:   sh,
		}
	}
	return segs
}
