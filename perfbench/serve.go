package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/serve"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// The serve_interactive workload: the CTS-flow use. An in-process
// serve.Server on a loopback listener with a temporary cache, its four
// table keys (coplanar and microstrip at two rise times) filled during
// set-up, driven by one closed-loop client sending batches of 8,
// because each CTS caller waits for its reply. Per-request HTTP, JSON
// and registry cost dominate; no transient and no field solve runs
// after set-up.

// reqHeader carries a request's trace id from the client span to the
// server-side span, so the traced run can parent the server's spans
// under the client request that caused them.
const reqHeader = "X-Perfbench-Req"

// serveShape fixes the closed loop: one pass sends requests batches
// of batch segments, one after another.
type serveShape struct {
	batch, requests int
	// maxSamples bounds the responses kept for the output check.
	maxSamples int
}

var interactiveShape = serveShape{batch: 8, requests: 500, maxSamples: 64}

func setupServeInteractive(ctx context.Context, seed int64, dir string) (job, error) {
	return newServeJob(ctx, seed, dir, interactiveShape)
}

// serveReq is one scripted request.
type serveReq struct {
	req  serve.BatchRequest
	body []byte
}

// serveSample is a kept 2xx response for the output check.
type serveSample struct {
	req  *serveReq
	body []byte
}

type serveJob struct {
	shape  serveShape
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	url    string
	// script is the client's requests for one pass.
	script []serveReq

	nextReq int64
	sent    int // 2xx responses so far, for sampling
	samples []serveSample
}

func newServeJob(ctx context.Context, seed int64, dir string, shape serveShape) (j *serveJob, err error) {
	cache, err := table.NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Tech: nominalTech(), Cache: cache})
	if err != nil {
		return nil, err
	}
	j = &serveJob{shape: shape, srv: srv}
	defer func() {
		if err != nil {
			j.close()
		}
	}()
	// Fill every key cold so the timed passes find the registry warm.
	// The registry keys sets by content address, so these configs name
	// the server's own sets.
	for _, tr := range riseTimesPs {
		for _, sh := range []geom.Shielding{geom.ShieldNone, geom.ShieldMicrostrip} {
			_, release, err := srv.Registry().Acquire(ctx, tableConfig(nominalTech(), sh, tr), table.DefaultAxes())
			if err != nil {
				return nil, err
			}
			release()
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	j.url = "http://" + ln.Addr().String() + "/v1/batch"
	j.hs = &http.Server{Handler: linkTrace(srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	j.served = make(chan error, 1)
	go func() { j.served <- j.hs.Serve(ln) }()
	j.client = &http.Client{Transport: &http.Transport{DisableCompression: true}}

	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < shape.requests; k++ {
		req := randomBatch(rng, shape.batch)
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		j.script = append(j.script, serveReq{req: req, body: body})
	}
	// Open the client's connection and warm the handler path.
	if _, status, err := j.post(ctx, &j.script[0]); err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("warm-up request: status %d: %v", status, err)
	}
	return j, nil
}

// linkTrace wraps the server's handler: while tracing, a request that
// carries reqHeader gets a server-side span recording that id, which
// the rollup re-parents under the client span.
func linkTrace(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get(reqHeader); id != "" {
			ctx, sp := obs.StartCtx(r.Context(), "bench.handler")
			sp.SetAttr("req", id)
			defer sp.End()
			r = r.WithContext(ctx)
		}
		h.ServeHTTP(w, r)
	})
}

// post sends one request and reads the whole response.
func (j *serveJob) post(ctx context.Context, r *serveReq) ([]byte, int, error) {
	ctx, sp := obs.StartCtx(ctx, "bench.client")
	defer sp.End()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, j.url, bytes.NewReader(r.body))
	if err != nil {
		return nil, 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if sp.Active() {
		j.nextReq++
		id := strconv.FormatInt(j.nextReq, 10)
		sp.SetAttr("req", id)
		hr.Header.Set(reqHeader, id)
	}
	resp, err := j.client.Do(hr)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

func (j *serveJob) pass(ctx context.Context, ps *passStats) error {
	for k := range j.script {
		r := &j.script[k]
		ps.attempted++
		t0 := time.Now()
		body, status, err := j.post(ctx, r)
		if err != nil || status != http.StatusOK {
			ps.failed++
			continue
		}
		ps.ops = append(ps.ops, time.Since(t0))
		j.keepSample(r, body)
	}
	return nil
}

// keepSample keeps an evenly spread subset of 2xx responses, across
// passes, for the output check.
func (j *serveJob) keepSample(r *serveReq, body []byte) {
	const stride = 37 // coprime to the script length, so passes sample different requests
	j.sent++
	if j.sent%stride == 0 && len(j.samples) < j.shape.maxSamples {
		j.samples = append(j.samples, serveSample{req: r, body: body})
	}
}

func (j *serveJob) verify(ctx context.Context) (int, []string) {
	checked := 0
	var bad []string
	for i, s := range j.samples {
		checked++
		if err := j.checkSample(ctx, s); err != nil {
			bad = append(bad, fmt.Sprintf("serve sample %d: %v", i, err))
		}
	}
	if checked == 0 {
		return 1, []string{"serve: no 2xx response to check"}
	}
	return checked, bad
}

// checkSample compares a served response with in-process extraction
// over the same registry sets, bit for bit.
func (j *serveJob) checkSample(ctx context.Context, s serveSample) error {
	var resp serve.BatchResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return err
	}
	want, err := j.inProcess(ctx, s.req.req)
	if err != nil {
		return err
	}
	return sameResults(resp.Results, want)
}

// inProcess extracts a request the way the server does, without HTTP.
func (j *serveJob) inProcess(ctx context.Context, req serve.BatchRequest) ([]serve.SegmentResult, error) {
	segs := coreSegments(req.Segments)
	var sets []*table.Set
	seen := map[geom.Shielding]bool{}
	for _, sg := range segs {
		if seen[sg.Shielding] {
			continue
		}
		seen[sg.Shielding] = true
		set, release, err := j.srv.Registry().Acquire(ctx, tableConfig(nominalTech(), sg.Shielding, req.RiseTimePs), table.DefaultAxes())
		if err != nil {
			return nil, err
		}
		defer release()
		sets = append(sets, set)
	}
	ext, err := core.NewExtractorFromTables(nominalTech(), units.SignificantFrequency(req.RiseTimePs*units.PicoSecond), sets...)
	if err != nil {
		return nil, err
	}
	ext.Configure(core.WithChecks(check.Off))
	out, err := ext.SegmentsRLCCtx(ctx, segs)
	if err != nil {
		return nil, err
	}
	res := make([]serve.SegmentResult, len(out))
	for i, rlc := range out {
		res[i] = serve.SegmentResult{ROhm: rlc.R, LH: rlc.L, CF: rlc.C}
	}
	return res, nil
}

func sameResults(got, want []serve.SegmentResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.ROhm) != math.Float64bits(w.ROhm) || math.Float64bits(g.LH) != math.Float64bits(w.LH) ||
			math.Float64bits(g.CF) != math.Float64bits(w.CF) {
			return fmt.Errorf("segment %d: served %+v, in-process %+v", i, g, w)
		}
	}
	return nil
}

func (j *serveJob) close() {
	if j.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := j.hs.Shutdown(ctx); err != nil {
			j.hs.Close()
		}
		cancel()
		if err := <-j.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
		j.hs = nil
	}
	if j.client != nil {
		j.client.CloseIdleConnections()
	}
	j.srv.Close()
}
