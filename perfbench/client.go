package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client issues requests to one dcsd over loopback with kept-alive
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

// do sends one request and returns the status and the whole body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// doJSON sends one untimed request that must answer 200 and decodes the
// reply into out (when non-nil).
func (c *client) doJSON(ctx context.Context, method, path string, body []byte, out any) error {
	status, resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, trim(resp))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(resp, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

func trim(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

// opRecord is one timed HTTP op of the load phase.
type opRecord struct {
	Client  int
	Seq     int
	Kind    string
	Start   time.Duration // since the phase began
	End     time.Duration
	Bytes   int
	SolveMS float64 // server-reported elapsed_ms; negative when the reply has none
	Failed  bool
	Why     string
}

func (r *opRecord) latencyMS() float64 { return float64(r.End-r.Start) / 1e6 }

// fail marks the op failed with the first reason given.
func (r *opRecord) fail(format string, args ...any) {
	if !r.Failed {
		r.Failed = true
		r.Why = fmt.Sprintf(format, args...)
	}
}

// exchange performs the op's timed HTTP exchange: the latency runs from just
// before the request is sent until the last byte of the reply is read.
// Transport errors and non-200 replies mark the op failed; the body is
// returned for the caller to check.
func (c *client) exchange(ctx context.Context, t0 time.Time, method, path string, body []byte, rec *opRecord) []byte {
	rec.SolveMS = -1
	rec.Start = time.Since(t0)
	status, resp, err := c.do(ctx, method, path, body)
	rec.End = time.Since(t0)
	rec.Bytes = len(resp)
	switch {
	case err != nil:
		rec.fail("transport: %v", err)
		return nil
	case status != http.StatusOK:
		rec.fail("status %d: %s", status, trim(resp))
		return nil
	}
	return resp
}

// minOps is the op count the load phase extends to when the deadline comes
// first: p99 needs 1000 samples to have ten beyond it.
const minOps = 1000

// runPhase runs the workload's closed-loop clients until the deadline: each
// client sends its next op only after the previous one completed. On a host
// too slow to reach minOps by the deadline, the phase runs on until it does
// (at most three times as long). It returns
// every op and the phase's wall time (until the last op finished). With a
// tracer it records a span per op, with the op's index as its trace ID and a
// child serve.solve span as long as the server-reported elapsed_ms.
func runPhase(ctx context.Context, w workload, c *client, seconds float64, tr *tracer) ([]opRecord, time.Duration) {
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	hardDeadline := t0.Add(time.Duration(3 * seconds * float64(time.Second)))
	var done atomic.Int64
	more := func() bool {
		now := time.Now()
		return ctx.Err() == nil && (now.Before(deadline) || (done.Load() < minOps && now.Before(hardDeadline)))
	}
	per := make([][]opRecord, w.clients())
	spans := make([][]span, w.clients())
	var wg sync.WaitGroup
	for cl := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; more(); seq++ {
				rec := opRecord{Client: cl, Seq: seq}
				w.op(ctx, c, t0, cl, seq, &rec)
				per[cl] = append(per[cl], rec)
				done.Add(1)
				if tr != nil {
					start, end := tr.ns(t0.Add(rec.Start)), tr.ns(t0.Add(rec.End))
					spans[cl] = append(spans[cl], span{Name: "http." + rec.Kind, Start: start, End: end})
					if rec.SolveMS >= 0 {
						solve := max(start, end-int64(rec.SolveMS*1e6))
						spans[cl] = append(spans[cl], span{Parent: -1, Name: "serve.solve", Start: solve, End: end})
					}
				}
			}
		}()
	}
	wg.Wait()
	var all []opRecord
	var last time.Duration
	for cl, recs := range per {
		for _, r := range recs {
			last = max(last, r.End)
		}
		if tr != nil {
			// Each op span takes the op's index in the returned slice as its
			// trace ID; a solve span (Parent -1) belongs to the op before it.
			trace, opID := int64(len(all))-1, int64(0)
			for _, s := range spans[cl] {
				if s.Parent == -1 {
					s.Trace, s.Parent = trace, opID
					tr.add(s)
					continue
				}
				trace++
				s.Trace = trace
				opID = tr.add(s)
			}
		}
		all = append(all, recs...)
	}
	return all, last
}
