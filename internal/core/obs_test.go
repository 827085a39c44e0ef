package core

import (
	"context"
	"testing"

	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
)

// TestWithObserverSpanNesting checks the trace shape a CLI run
// produces: table builds during construction, then per-segment
// core.extract spans each parenting a table.lookup span.
func TestWithObserverSpanNesting(t *testing.T) {
	mem := &obs.MemorySink{}
	o := obs.New(mem)
	e, err := NewExtractorCtx(context.Background(), testTech(), fsig, testAxes(),
		[]geom.Shielding{geom.ShieldNone}, WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SegmentRLCCtx(context.Background(), fig1Segment()); err != nil {
		t.Fatal(err)
	}

	var extractID uint64
	starts := map[string]int{}
	var lookupParent uint64
	for _, ev := range mem.Events() {
		if ev.Type != obs.EventSpanStart {
			continue
		}
		starts[ev.Name]++
		switch ev.Name {
		case "core.extract":
			extractID = ev.Span
		case "table.lookup":
			lookupParent = ev.Parent
		}
	}
	for _, name := range []string{"core.build_tables", "table.build", "core.extract", "table.lookup"} {
		if starts[name] == 0 {
			t.Errorf("no %q span recorded (got %v)", name, starts)
		}
	}
	if extractID == 0 || lookupParent != extractID {
		t.Errorf("table.lookup parent = %d, want core.extract span %d", lookupParent, extractID)
	}
}

// TestObserverDefaultsDisabled ensures an un-optioned extractor routes
// to the disabled process default (no events, no failures).
func TestObserverDefaultsDisabled(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	if e.observer() != obs.Default() {
		t.Fatal("expected the process-default observer")
	}
	if e.observer().Enabled() {
		t.Fatal("default observer should be disabled in tests")
	}
	if _, err := e.SegmentRLCCtx(context.Background(), fig1Segment()); err != nil {
		t.Fatal(err)
	}
}
