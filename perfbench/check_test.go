package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dcslib/dcs/serve"
)

// corrupter wraps a dcsd handler and, while on, nudges the density of the
// first result of every third mining reply by one ulp.
type corrupter struct {
	next http.Handler
	on   atomic.Bool
	n    atomic.Int64
}

func (c *corrupter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mining := strings.HasPrefix(r.URL.Path, "/v1/dcs") || strings.HasPrefix(r.URL.Path, "/v1/topics")
	if !c.on.Load() || !mining || c.n.Add(1)%3 != 0 {
		c.next.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	c.next.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if rec.Code == http.StatusOK {
		if r.URL.Path == "/v1/topics" {
			var tr serve.TopicsResponse
			if json.Unmarshal(body, &tr) == nil && len(tr.Topics) > 0 {
				tr.Topics[0].Density = math.Nextafter(tr.Topics[0].Density, math.Inf(1))
				body, _ = json.Marshal(tr)
			}
		} else {
			var dr serve.DCSResponse
			if json.Unmarshal(body, &dr) == nil {
				switch {
				case len(dr.Results) > 0:
					dr.Results[0].Density = math.Nextafter(dr.Results[0].Density, math.Inf(1))
				case dr.Ratio != nil:
					dr.Ratio.Density1 = math.Nextafter(dr.Ratio.Density1, math.Inf(1))
				}
				body, _ = json.Marshal(dr)
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(rec.Code)
	w.Write(body) //nolint:errcheck // test server
}

func failedFrac(recs []opRecord) float64 {
	failed := 0
	for _, r := range recs {
		if r.Failed {
			failed++
		}
	}
	return float64(failed) / float64(len(recs))
}

// A corrupted answer — one ulp off in one density — must count as a failed
// op, so failed_frac rises above zero; the same run without corruption has
// none.
func TestCorruptedAnswerRaisesFailedFrac(t *testing.T) {
	srv := serve.New(serve.Config{Parallelism: 1})
	defer srv.Close()
	cor := &corrupter{next: srv}
	ts := httptest.NewServer(cor)
	defer ts.Close()

	w := newQueryMix(5, qmSize{Pairs: 2, CheapPairs: 4, BigN: 300, SmallN: 100, Par: 1, Decks: 4})
	c := newClient(ts.URL, 2)
	ctx := context.Background()
	if err := w.setup(ctx, c); err != nil {
		t.Fatal(err)
	}
	if err := w.precheck(ctx, c); err != nil {
		t.Fatalf("precheck on an honest server: %v", err)
	}

	clean, _ := runPhase(ctx, w, c, 0.2, nil)
	if f := failedFrac(clean); f != 0 {
		t.Fatalf("honest server: failed_frac %v, want 0", f)
	}

	cor.on.Store(true)
	bad, _ := runPhase(ctx, w, c, 0.2, nil)
	f := failedFrac(bad)
	if f == 0 {
		t.Fatalf("corrupting every third mining reply: failed_frac 0 over %d ops", len(bad))
	}
	t.Logf("failed_frac %.3f over %d ops with corruption", f, len(bad))
	if err := w.precheck(ctx, c); err == nil {
		t.Error("precheck passed against a corrupting server")
	}
}
