package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/core"
	"clockrlc/internal/fault"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

func testTech() core.Technology {
	return core.Technology{
		Thickness:      units.Um(2),
		Rho:            units.RhoCopper,
		EpsRel:         units.EpsSiO2,
		CapHeight:      units.Um(2),
		PlaneGap:       units.Um(2),
		PlaneThickness: units.Um(1),
	}
}

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{
		Tech:          testTech(),
		Axes:          testAxes(),
		DefaultCheck:  check.Warn,
		DefaultLookup: table.LookupError,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func testSegments() []SegmentRequest {
	return []SegmentRequest{
		{LengthUm: 500, SignalWidthUm: 2, GroundWidthUm: 2, SpacingUm: 1.5},
		{LengthUm: 300, SignalWidthUm: 1.5, GroundWidthUm: 3, SpacingUm: 1.2, Shielding: "microstrip"},
		{LengthUm: 800, SignalWidthUm: 3, GroundWidthUm: 2, SpacingUm: 1.8, Shielding: "coplanar"},
	}
}

// The golden: a /v1/batch response is bit-identical, in input order,
// to the same extraction run in-process against the same tables.
// Float64s round-trip exactly through Go's JSON encoding, so the
// comparison is ==, not a tolerance.
func TestBatchMatchesInProcessExtraction(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const tr = 50.0
	status, body := postJSON(t, ts, "/v1/batch", BatchRequest{
		RiseTimePs: tr, Segments: testSegments(),
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(testSegments()) {
		t.Fatalf("%d results for %d segments", len(resp.Results), len(testSegments()))
	}

	// The same extraction, in-process, through the same table physics.
	freq := units.SignificantFrequency(tr * units.PicoSecond)
	var sets []*table.Set
	for _, sh := range []string{"", "microstrip"} {
		shv, err := parseShielding(sh)
		if err != nil {
			t.Fatal(err)
		}
		set, err := table.BuildCtx(context.Background(), s.tableConfig(shv, freq), s.cfg.Axes, nil)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set)
	}
	ext, err := core.NewExtractorFromTables(testTech(), freq, sets...)
	if err != nil {
		t.Fatal(err)
	}
	var segs []core.Segment
	for _, sr := range testSegments() {
		sh, _ := parseShielding(sr.Shielding)
		segs = append(segs, core.Segment{
			Length:      units.Um(sr.LengthUm),
			SignalWidth: units.Um(sr.SignalWidthUm),
			GroundWidth: units.Um(sr.GroundWidthUm),
			Spacing:     units.Um(sr.SpacingUm),
			Shielding:   sh,
		})
	}
	want, err := ext.SegmentsRLCCtx(context.Background(), segs)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range resp.Results {
		if got.ROhm != want[i].R || got.LH != want[i].L || got.CF != want[i].C {
			t.Errorf("segment %d: served (%g, %g, %g) != in-process (%g, %g, %g)",
				i, got.ROhm, got.LH, got.CF, want[i].R, want[i].L, want[i].C)
		}
	}
}

// /v1/extract is the single-segment form of /v1/batch.
func TestExtractMatchesBatch(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seg := testSegments()[0]
	status, body := postJSON(t, ts, "/v1/extract", ExtractRequest{SegmentRequest: seg, RiseTimePs: 50})
	if status != http.StatusOK {
		t.Fatalf("extract status %d: %s", status, body)
	}
	var single SegmentResult
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatal(err)
	}
	status, body = postJSON(t, ts, "/v1/batch", BatchRequest{
		RiseTimePs: 50, Segments: []SegmentRequest{seg},
	})
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if single != batch.Results[0] {
		t.Errorf("extract %+v != batch-of-one %+v", single, batch.Results[0])
	}
	if single.ROhm <= 0 || single.LH <= 0 || single.CF <= 0 {
		t.Errorf("non-positive RLC: %+v", single)
	}
}

// A failing segment aborts the batch with an error naming its index.
func TestBatchErrorNamesSegmentIndex(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	segs := testSegments()
	segs[1].SignalWidthUm = -2
	status, body := postJSON(t, ts, "/v1/batch", BatchRequest{RiseTimePs: 50, Segments: segs})
	if status != http.StatusBadRequest {
		t.Errorf("status %d, want 400: %s", status, body)
	}
	if !strings.Contains(string(body), "segment 1") {
		t.Errorf("error does not name segment 1: %s", body)
	}

	segs = testSegments()
	segs[2].Shielding = "faraday-cage"
	status, body = postJSON(t, ts, "/v1/batch", BatchRequest{RiseTimePs: 50, Segments: segs})
	if status != http.StatusBadRequest {
		t.Errorf("status %d, want 400: %s", status, body)
	}
	if !strings.Contains(string(body), "segment 2") {
		t.Errorf("error does not name segment 2: %s", body)
	}
}

// The per-request lookup policy decides whether an off-axis geometry
// is refused (422, unwrapping to the table's out-of-range error) or
// extrapolated (200) — against the same resident set.
func TestPerRequestLookupPolicy(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	offAxis := BatchRequest{
		RiseTimePs: 50,
		Segments: []SegmentRequest{
			// 8 µm is past the test axes' 4 µm width ceiling.
			{LengthUm: 500, SignalWidthUm: 8, GroundWidthUm: 8, SpacingUm: 1.5},
		},
	}

	offAxis.LookupPolicy = "error"
	status, body := postJSON(t, ts, "/v1/batch", offAxis)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("error policy: status %d, want 422: %s", status, body)
	}
	if !strings.Contains(string(body), "segment 0") {
		t.Errorf("error does not name the segment: %s", body)
	}

	offAxis.LookupPolicy = "extrapolate"
	status, body = postJSON(t, ts, "/v1/batch", offAxis)
	if status != http.StatusOK {
		t.Errorf("extrapolate policy: status %d, want 200: %s", status, body)
	}

	// The policy rides a per-request header copy: a following
	// default-policy (error) request is still refused.
	offAxis.LookupPolicy = ""
	status, body = postJSON(t, ts, "/v1/batch", offAxis)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("default policy after extrapolate request: status %d, want 422: %s", status, body)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, tc := range map[string]struct {
		path string
		body string
		want string
	}{
		"malformed json":  {"/v1/batch", `{"rise_time_ps": 50, "segments": [`, "bad request body"},
		"unknown field":   {"/v1/batch", `{"rise_time_ps": 50, "rise": 1}`, "bad request body"},
		"no segments":     {"/v1/batch", `{"rise_time_ps": 50, "segments": []}`, "no segments"},
		"bad rise time":   {"/v1/batch", `{"rise_time_ps": 0, "segments": [{"length_um": 500, "signal_width_um": 2, "ground_width_um": 2, "spacing_um": 1.5}]}`, "rise_time_ps"},
		"bad check":       {"/v1/batch", `{"rise_time_ps": 50, "check": "maybe", "segments": [{"length_um": 500, "signal_width_um": 2, "ground_width_um": 2, "spacing_um": 1.5}]}`, "maybe"},
		"bad lookup":      {"/v1/batch", `{"rise_time_ps": 50, "lookup_policy": "guess", "segments": [{"length_um": 500, "signal_width_um": 2, "ground_width_um": 2, "spacing_um": 1.5}]}`, "guess"},
		"extract no body": {"/v1/extract", ``, "bad request body"},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %q does not mention %q", name, body, tc.want)
		}
		var e errorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body is not {\"error\": ...}: %s", name, body)
		}
	}
}

func TestHealthMetricsAndDebugEndpoints(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Run one extraction so the serve counters exist in the snapshot.
	if status, body := postJSON(t, ts, "/v1/batch", BatchRequest{
		RiseTimePs: 50, Segments: testSegments()[:1],
	}); status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}

	for path, want := range map[string]string{
		"/healthz":     "ok",
		"/metrics":     "clockrlc_serve_requests",
		"/debug/vars":  `"clockrlc"`,
		"/debug/pprof": "profiles",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s: body does not contain %q", path, want)
		}
	}
}

// Drain waits for in-flight requests (latency-injected so the build
// genuinely straddles the drain) and returns promptly once they
// finish; a deadline that cannot be met surfaces as the context
// error.
func TestDrainWaitsForInFlight(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fault.Register(fault.NewInjector(11, fault.Rule{
		Point: fault.SolverCall, Mode: fault.ModeLatency, Prob: 1, Delay: 5 * time.Millisecond,
	}))
	defer fault.Reset()

	done := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts, "/v1/batch", BatchRequest{
			RiseTimePs: 50, Segments: testSegments()[:1],
		})
		done <- status
	}()

	// Wait until the request is actually in flight.
	deadline := time.Now().Add(5 * time.Second)
	for srvInFlightN.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never went in flight")
		}
		time.Sleep(time.Millisecond)
	}

	short, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Drain(short); err == nil {
		t.Error("Drain met an unmeetable deadline with a build in flight")
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Drain returning proves the handler finished; the client read of
	// the response lags it by a socket round-trip.
	select {
	case status := <-done:
		if status != http.StatusOK {
			t.Errorf("in-flight request finished with status %d", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	if n := srvInFlightN.Load(); n != 0 {
		t.Errorf("inflight = %d after drain", n)
	}
}
