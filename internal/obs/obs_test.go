package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNestingAndOrdering(t *testing.T) {
	sink := &MemorySink{}
	o := New(sink)

	ctx, root := o.StartCtx(context.Background(), "extract")
	_, lookup := o.StartCtx(ctx, "table.lookup")
	lookup.End()
	_, cascade := o.StartCtx(ctx, "cascade")
	cascade.End()
	root.End()

	evs := sink.Events()
	want := []struct {
		typ  EventType
		name string
	}{
		{EventSpanStart, "extract"},
		{EventSpanStart, "table.lookup"},
		{EventSpanEnd, "table.lookup"},
		{EventSpanStart, "cascade"},
		{EventSpanEnd, "cascade"},
		{EventSpanEnd, "extract"},
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d", len(evs), len(want))
	}
	for i, w := range want {
		if evs[i].Type != w.typ || evs[i].Name != w.name {
			t.Errorf("event %d = %s %q, want %s %q", i, evs[i].Type, evs[i].Name, w.typ, w.name)
		}
	}
	// Parenting: both children carry the root's span id.
	rootID := evs[0].Span
	if rootID == 0 {
		t.Fatal("root span id is zero")
	}
	if evs[0].Parent != 0 {
		t.Errorf("root parent = %d, want 0", evs[0].Parent)
	}
	for _, i := range []int{1, 3} {
		if evs[i].Parent != rootID {
			t.Errorf("%q parent = %d, want root %d", evs[i].Name, evs[i].Parent, rootID)
		}
	}
	// Siblings must not nest under each other.
	if evs[3].Parent == evs[1].Span {
		t.Error("second sibling parented under ended first sibling")
	}
}

func TestSpanDoubleEndAndZeroSpan(t *testing.T) {
	sink := &MemorySink{}
	o := New(sink)
	_, s := o.StartCtx(context.Background(), "x")
	s.End()
	s.End()
	if n := len(sink.Events()); n != 2 {
		t.Errorf("double End emitted %d events, want 2", n)
	}
	var zero Span
	zero.End() // must not panic
	zero.SetAttr("k", 1)
	if zero.Active() {
		t.Error("zero span reports active")
	}
}

func TestSpanAttrsAndDuration(t *testing.T) {
	sink := &MemorySink{}
	o := New(sink)
	// Deterministic clock: each call advances 5 ms.
	var tick int
	base := time.Unix(1000, 0)
	o.now = func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * 5 * time.Millisecond)
	}
	_, s := o.StartCtx(context.Background(), "build")
	s.SetAttr("entries", 42)
	s.End()
	evs := sink.Events()
	end := evs[1]
	if end.Dur != 5*time.Millisecond {
		t.Errorf("duration = %v, want 5ms", end.Dur)
	}
	if got := end.Attrs["entries"]; got != 42 {
		t.Errorf("attr entries = %v, want 42", got)
	}
}

func TestNoopSpanZeroAlloc(t *testing.T) {
	o := New() // no sinks: disabled
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := o.StartCtx(ctx, "hot")
		sp.SetAttr("k", 1)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled StartCtx/End allocates %.1f objects/op, want 0", allocs)
	}
}

func TestCounterZeroAlloc(t *testing.T) {
	c := GetCounter("test.zero_alloc")
	allocs := testing.AllocsPerRun(1000, func() { c.Inc() })
	if allocs != 0 {
		t.Errorf("Counter.Inc allocates %.1f objects/op, want 0", allocs)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	o := New(sink)
	ctx, root := o.StartCtx(context.Background(), "extract")
	_, child := o.StartCtx(ctx, "table.lookup")
	child.SetAttr("w_um", 10.0)
	child.End()
	root.End()
	sink.Emit(&Event{Type: EventMetrics, Time: time.Now(), Snap: DefaultRegistry().Snapshot()})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d JSONL lines, want 5", len(lines))
	}
	var evs []Event
	for i, ln := range lines {
		var e Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		evs = append(evs, e)
	}
	if evs[0].Type != EventSpanStart || evs[0].Name != "extract" {
		t.Errorf("line 0 = %s %q", evs[0].Type, evs[0].Name)
	}
	if evs[2].Type != EventSpanEnd || evs[2].Name != "table.lookup" {
		t.Errorf("line 2 = %s %q", evs[2].Type, evs[2].Name)
	}
	if evs[2].Parent != evs[0].Span {
		t.Errorf("lookup parent = %d, want %d", evs[2].Parent, evs[0].Span)
	}
	if got := evs[2].Attrs["w_um"]; got != 10.0 {
		t.Errorf("attr w_um = %v, want 10", got)
	}
	if evs[4].Type != EventMetrics || evs[4].Snap == nil {
		t.Errorf("line 4 = %s (metrics snapshot missing)", evs[4].Type)
	}
}

func TestConcurrentSpansDoNotRace(t *testing.T) {
	sink := &MemorySink{}
	o := New(sink)
	ctx, root := o.StartCtx(context.Background(), "root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, sp := o.StartCtx(ctx, "worker")
				sp.SetAttr("i", i)
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	evs := sink.Events()
	if len(evs) != 2+2*8*100 {
		t.Errorf("got %d events, want %d", len(evs), 2+2*8*100)
	}
}

func TestRemoveSinkDisables(t *testing.T) {
	sink := &MemorySink{}
	o := New(sink)
	if !o.Enabled() {
		t.Fatal("observer with sink not enabled")
	}
	o.RemoveSink(sink)
	if o.Enabled() {
		t.Fatal("observer still enabled after RemoveSink")
	}
	if _, sp := o.StartCtx(context.Background(), "x"); sp.Active() {
		t.Error("disabled observer returned active span")
	}
}
