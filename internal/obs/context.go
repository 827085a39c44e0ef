package obs

import "context"

// Context propagation: the one way to parent spans. StartCtx reads
// its parent from the context, so each goroutine carries its own
// lineage and a fanned-out stage (table.BuildCtx's worker pool,
// Extractor.SegmentsRLCCtx, the clocktree stage walk) reconstructs
// exactly at any worker count. The disarmed path (observer disabled)
// is a single atomic load returning the context unchanged: no
// allocation, no context wrapping, nothing for the hot paths to pay.

// spanCtxKey keys the current span in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sp as the current span, the
// parent of any StartCtx span started under the returned context.
// A zero span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp Span) context.Context {
	if sp.d == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx (the zero, disabled
// span when none is attached).
func SpanFromContext(ctx context.Context) Span {
	if ctx == nil {
		return Span{}
	}
	sp, _ := ctx.Value(spanCtxKey{}).(Span)
	return sp
}

// StartCtx begins a span parented to the span carried by ctx (a root
// span when ctx carries none, or one from a different observer) and
// returns a derived context carrying the new span, for passing to
// child operations. It is correct from any number of goroutines.
// With the observer disabled it returns (ctx, Span{}) after one
// atomic load.
func (o *Observer) StartCtx(ctx context.Context, name string) (context.Context, Span) {
	if o == nil || !o.enabled.Load() {
		return ctx, Span{}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var parent uint64
	if p := SpanFromContext(ctx); p.d != nil && p.d.o == o {
		parent = p.d.id
	}
	d := &spanData{o: o, id: o.nextID.Add(1), parent: parent, name: name, start: o.clock()}
	o.mu.Lock()
	sinks := o.sinks
	o.mu.Unlock()
	emit(sinks, &Event{Type: EventSpanStart, Name: name, Span: d.id, Parent: d.parent, Time: d.start})
	sp := Span{d: d}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// StartCtx begins a context-parented span on the default observer.
func StartCtx(ctx context.Context, name string) (context.Context, Span) {
	return defaultObserver.StartCtx(ctx, name)
}
