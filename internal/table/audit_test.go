package table

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"clockrlc/internal/check"
	"clockrlc/internal/spline"
	"clockrlc/internal/units"
)

// syntheticSet assembles a physically plausible set from closed-form
// values (Rosa-style self inductance, coupling fixed well below 1) so
// audit tests need no field solves.
func syntheticSet(t testing.TB) *Set {
	t.Helper()
	return syntheticSetAxes(t, Axes{
		Widths:   []float64{units.Um(1), units.Um(2), units.Um(4)},
		Spacings: []float64{units.Um(1), units.Um(2)},
		Lengths:  []float64{units.Um(100), units.Um(400), units.Um(1600)},
	})
}

func syntheticSetAxes(t testing.TB, axes Axes) *Set {
	t.Helper()
	nw, ns, nl := len(axes.Widths), len(axes.Spacings), len(axes.Lengths)
	selfVals := make([]float64, nw*nl)
	for iw, w := range axes.Widths {
		for il, l := range axes.Lengths {
			selfVals[iw*nl+il] = 2e-7 * l * (math.Log(2*l/w) + 0.5)
		}
	}
	mutVals := make([]float64, nw*nw*ns*nl)
	for i := 0; i < nw; i++ {
		for j := 0; j < nw; j++ {
			for si := 0; si < ns; si++ {
				for li := 0; li < nl; li++ {
					l1, l2 := selfVals[i*nl+li], selfVals[j*nl+li]
					k := 0.3 / float64(si+1)
					mutVals[((i*nw+j)*ns+si)*nl+li] = k * math.Sqrt(l1*l2)
				}
			}
		}
	}
	s := &Set{Config: Config{Name: "m6/synthetic"}, Axes: axes}
	var err error
	if s.Self, err = spline.NewGrid([][]float64{axes.Widths, axes.Lengths}, selfVals); err != nil {
		t.Fatal(err)
	}
	if s.Mutual, err = spline.NewGrid(
		[][]float64{axes.Widths, axes.Widths, axes.Spacings, axes.Lengths}, mutVals); err != nil {
		t.Fatal(err)
	}
	return s
}

// rebuildSelf re-derives the self spline after a test mutated Vals, so
// the spike detector sees an interpolant consistent with the data.
func rebuildSelf(t *testing.T, s *Set) {
	t.Helper()
	vals := s.Self.Vals
	var err error
	if s.Self, err = spline.NewGrid([][]float64{s.Axes.Widths, s.Axes.Lengths}, vals); err != nil {
		t.Fatal(err)
	}
}

func auditInvariants(vs []check.Violation) []string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Invariant)
	}
	return out
}

func hasViolation(vs []check.Violation, invariantFrag, cellFrag string) bool {
	for _, v := range vs {
		if strings.Contains(v.Invariant, invariantFrag) && strings.Contains(v.Cell, cellFrag) {
			return true
		}
	}
	return false
}

func TestAuditCleanSet(t *testing.T) {
	s := syntheticSet(t)
	if vs := s.Audit(); len(vs) != 0 {
		t.Fatalf("clean set audit reported %d violations: %v", len(vs), auditInvariants(vs))
	}
}

func TestAuditCleanBuiltSet(t *testing.T) {
	set, err := BuildCtx(context.Background(), freeConfig(), Axes{
		Widths:   LogAxis(units.Um(1), units.Um(8), 3),
		Spacings: LogAxis(units.Um(1), units.Um(4), 3),
		Lengths:  LogAxis(units.Um(200), units.Um(3000), 4),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vs := set.Audit(); len(vs) != 0 {
		t.Fatalf("real built set fails its own audit: %v", auditInvariants(vs))
	}
}

func TestAuditFlagsNonPositiveSelf(t *testing.T) {
	s := syntheticSet(t)
	nl := len(s.Axes.Lengths)
	s.Self.Vals[1*nl+0] = -1e-10
	rebuildSelf(t, s)
	vs := s.Audit()
	if !hasViolation(vs, "self inductance positive", "self[1,0]") {
		t.Errorf("negative self not flagged at its cell; got %v", auditInvariants(vs))
	}
}

func TestAuditFlagsNaNSelf(t *testing.T) {
	s := syntheticSet(t)
	nl := len(s.Axes.Lengths)
	s.Self.Vals[0*nl+2] = math.NaN()
	rebuildSelf(t, s)
	if vs := s.Audit(); !hasViolation(vs, "self inductance finite", "self[0,2]") {
		t.Errorf("NaN self not flagged; got %v", auditInvariants(vs))
	}
}

func TestAuditFlagsNonMonotoneSelf(t *testing.T) {
	s := syntheticSet(t)
	nl := len(s.Axes.Lengths)
	// Swap the last two lengths of width row 2: still positive and
	// finite, but decreasing in length.
	s.Self.Vals[2*nl+1], s.Self.Vals[2*nl+2] = s.Self.Vals[2*nl+2], s.Self.Vals[2*nl+1]
	rebuildSelf(t, s)
	if vs := s.Audit(); !hasViolation(vs, "monotone non-decreasing", "self[2,2]") {
		t.Errorf("non-monotone self not flagged; got %v", auditInvariants(vs))
	}
}

func TestAuditFlagsAsymmetricMutual(t *testing.T) {
	s := syntheticSet(t)
	nw, ns, nl := len(s.Axes.Widths), len(s.Axes.Spacings), len(s.Axes.Lengths)
	idx := ((0*nw+1)*ns+1)*nl + 1 // mutual[0,1,1,1], mirror left intact
	s.Mutual.Vals[idx] *= 1.25
	if vs := s.Audit(); !hasViolation(vs, "symmetric", "mutual[0,1,1,1]") {
		t.Errorf("asymmetric mutual not flagged; got %v", auditInvariants(vs))
	}
}

func TestAuditFlagsCouplingAboveOne(t *testing.T) {
	s := syntheticSet(t)
	nw, ns, nl := len(s.Axes.Widths), len(s.Axes.Spacings), len(s.Axes.Lengths)
	// Diagonal cell (w1 == w2): trivially symmetric, so the only new
	// violation is the coupling bound.
	i := 1
	idx := ((i*nw+i)*ns+0)*nl + 2
	s.Mutual.Vals[idx] = 1.5 * s.Self.Vals[i*nl+2]
	vs := s.Audit()
	if !hasViolation(vs, "mutual coupling k < 1", "mutual[1,1,0,2]") {
		t.Fatalf("k >= 1 not flagged; got %v", auditInvariants(vs))
	}
	for _, v := range vs {
		if strings.Contains(v.Invariant, "k < 1") {
			if !strings.Contains(v.Subject, "m6/synthetic") {
				t.Errorf("violation subject %q does not name the table", v.Subject)
			}
			if !strings.Contains(v.Detail, "= 1.5") {
				t.Errorf("violation detail %q does not carry the coupling value", v.Detail)
			}
		}
	}
}

func TestAuditFlagsSplineSpike(t *testing.T) {
	// A dense length axis so a single-knot excursion has neighbouring
	// intervals whose envelopes are narrow: the cubic reacts to the
	// spike by swinging outside those envelopes between the knots. The
	// point of this test is that the *interpolant* between knots is
	// checked too, not just the knot values.
	s := syntheticSetAxes(t, Axes{
		Widths:   []float64{units.Um(1), units.Um(2)},
		Spacings: []float64{units.Um(1), units.Um(2)},
		Lengths:  LogAxis(units.Um(100), units.Um(3200), 6),
	})
	nl := len(s.Axes.Lengths)
	s.Self.Vals[0*nl+3] *= 50
	rebuildSelf(t, s)
	vs := s.Audit()
	spike := false
	for _, v := range vs {
		if strings.Contains(v.Invariant, "spline") {
			spike = true
		}
	}
	if !spike {
		t.Errorf("mid-knot spline excursion not flagged; got %v", auditInvariants(vs))
	}
}

// Satellite regression: a cached table corrupted to k > 1 — with a
// perfectly valid checksum, because it is re-saved after the flip — is
// rejected by Strict at load with an error naming the file, the cell
// and the invariant, while Warn counts and proceeds.
func TestCorruptCachedTableStrictVsWarn(t *testing.T) {
	defer check.SetPolicy(check.Off)
	check.SetPolicy(check.Off)

	s := syntheticSet(t)
	nw, ns, nl := len(s.Axes.Widths), len(s.Axes.Spacings), len(s.Axes.Lengths)
	i := 2
	s.Mutual.Vals[((i*nw+i)*ns+1)*nl+0] = 2 * s.Self.Vals[i*nl+0]
	path := filepath.Join(t.TempDir(), "m6-synthetic.json")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// The checksum is valid — a policy-off load accepts the file.
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("policy-off load rejected the file: %v", err)
	}

	check.SetPolicy(check.Strict)
	_, err := LoadFile(path)
	if err == nil {
		t.Fatal("strict load accepted a table with k >= 1")
	}
	if !errors.Is(err, check.ErrViolation) {
		t.Errorf("strict rejection %v does not unwrap to ErrViolation", err)
	}
	for _, frag := range []string{path, "mutual coupling k < 1", "mutual[2,2,1,0]", "m6/synthetic"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("strict rejection %q missing %q", err.Error(), frag)
		}
	}

	check.SetPolicy(check.Warn)
	before := check.Violations()
	stBefore := check.StageViolations(check.StageTableAudit)
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("warn load failed: %v", err)
	}
	if check.Violations() <= before {
		t.Error("warn load did not advance check.violations")
	}
	if check.StageViolations(check.StageTableAudit) <= stBefore {
		t.Error("warn load did not advance the table_audit stage counter")
	}
}

// Build-path hook: a strict engine audits freshly built sets, and a
// clean build passes.
func TestBuildAuditHookStrictClean(t *testing.T) {
	defer check.SetPolicy(check.Off)
	check.SetPolicy(check.Strict)
	set, err := BuildCtx(context.Background(), freeConfig(), Axes{
		Widths:   LogAxis(units.Um(1), units.Um(6), 3),
		Spacings: LogAxis(units.Um(1), units.Um(3), 2),
		Lengths:  LogAxis(units.Um(200), units.Um(2000), 3),
	}, nil)
	if err != nil {
		t.Fatalf("strict policy rejected a clean build: %v", err)
	}
	if set == nil {
		t.Fatal("nil set")
	}
}
