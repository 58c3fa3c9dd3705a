package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	dcs "github.com/dcslib/dcs"
)

// fp builds the *float64 request fields (Alpha) from a literal.
func fp(v float64) *float64 { return &v }

// fig1Pair is the running example of the paper's Fig. 1 (also used by the
// package dcs examples): the contrast subgraph is {0, 2, 3} under both
// density measures.
func fig1Pair() (g1, g2 GraphJSON) {
	g1 = GraphJSON{N: 5, Edges: []EdgeJSON{
		{0, 2, 2}, {0, 3, 2}, {2, 3, 1}, {2, 4, 3}, {1, 4, 2},
	}}
	g2 = GraphJSON{N: 5, Edges: []EdgeJSON{
		{0, 1, 1}, {0, 2, 5}, {0, 3, 6}, {2, 3, 4}, {2, 4, 2}, {1, 4, 3},
	}}
	return
}

// doJSON runs one request against the handler and decodes the JSON response.
func doJSON(t *testing.T, h http.Handler, method, path string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode response %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// upload registers the Fig. 1 snapshots as "old" and "new".
func upload(t *testing.T, s *Server) {
	t.Helper()
	g1, g2 := fig1Pair()
	for _, req := range []SnapshotRequest{
		{Name: "old", GraphJSON: g1},
		{Name: "new", GraphJSON: g2},
	} {
		if code := doJSON(t, s, http.MethodPost, "/v1/snapshots", req, nil); code != http.StatusOK {
			t.Fatalf("upload %q: status %d", req.Name, code)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := New(Config{})
	var h HealthResponse
	if code := doJSON(t, s, http.MethodGet, "/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if h.Status != "ok" || h.Snapshots != 0 || h.InFlight != 0 {
		t.Fatalf("unexpected health %+v", h)
	}
	if code := doJSON(t, s, http.MethodPost, "/healthz", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz: status %d, want 405", code)
	}
}

func TestSnapshotLifecycle(t *testing.T) {
	s := New(Config{})
	upload(t, s)

	var list []SnapshotInfo
	if code := doJSON(t, s, http.MethodGet, "/v1/snapshots", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list) != 2 || list[0].Name != "new" || list[1].Name != "old" {
		t.Fatalf("unexpected list %+v", list)
	}
	if list[0].N != 5 || list[0].M != 6 || list[0].Version != 1 {
		t.Fatalf("unexpected info for new: %+v", list[0])
	}

	// Replacing a snapshot bumps its version.
	g1, _ := fig1Pair()
	var info SnapshotInfo
	if code := doJSON(t, s, http.MethodPost, "/v1/snapshots", SnapshotRequest{Name: "old", GraphJSON: g1}, &info); code != http.StatusOK {
		t.Fatalf("replace: status %d", code)
	}
	if info.Version != 2 {
		t.Fatalf("replace: version %d, want 2", info.Version)
	}
}

func TestSnapshotErrors(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name string
		req  any
		want int
	}{
		{"missing name", SnapshotRequest{GraphJSON: GraphJSON{N: 2}}, http.StatusBadRequest},
		{"slash in name", SnapshotRequest{Name: "a/b", GraphJSON: GraphJSON{N: 2}}, http.StatusBadRequest},
		{"self loop", SnapshotRequest{Name: "x", GraphJSON: GraphJSON{N: 2, Edges: []EdgeJSON{{0, 0, 1}}}}, http.StatusBadRequest},
		{"out of range", SnapshotRequest{Name: "x", GraphJSON: GraphJSON{N: 2, Edges: []EdgeJSON{{0, 7, 1}}}}, http.StatusBadRequest},
		{"negative n", SnapshotRequest{Name: "x", GraphJSON: GraphJSON{N: -1}}, http.StatusBadRequest},
		{"bad json", "not an object", http.StatusBadRequest},
	}
	for _, c := range cases {
		if code := doJSON(t, s, http.MethodPost, "/v1/snapshots", c.req, nil); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
	}
	// Past the graph's vertex limit Build errors, whatever MaxVertices allows.
	if _, err := (&GraphJSON{N: dcs.MaxN + 1}).Build(); err == nil {
		t.Error("GraphJSON.Build accepted a vertex count past dcs.MaxN")
	}
	if code := doJSON(t, s, http.MethodDelete, "/v1/snapshots", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status %d, want 405", code)
	}
}

func TestDCSAverageDegree(t *testing.T) {
	s := New(Config{})
	upload(t, s)
	var resp DCSResponse
	req := DCSRequest{Measure: "avgdeg", G1: "old", G2: "new"}
	if code := doJSON(t, s, http.MethodPost, "/v1/dcs", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(resp.Results))
	}
	r := resp.Results[0]
	wantS := []int{0, 2, 3}
	if len(r.S) != 3 || r.S[0] != 0 || r.S[1] != 2 || r.S[2] != 3 {
		t.Fatalf("S = %v, want %v", r.S, wantS)
	}
	if math.Abs(r.Density-20.0/3) > 1e-9 || math.Abs(r.TotalWeight-20) > 1e-9 {
		t.Fatalf("density %v totalweight %v, want 6.667 / 20", r.Density, r.TotalWeight)
	}
	if !r.PositiveClique || !r.Connected {
		t.Fatalf("flags %+v, want positive connected clique", r)
	}
	if resp.G1.Name != "old" || resp.G1.Version != 1 || resp.G2.Name != "new" {
		t.Fatalf("refs %+v %+v", resp.G1, resp.G2)
	}
}

func TestDCSAffinity(t *testing.T) {
	s := New(Config{})
	upload(t, s)
	var resp DCSResponse
	req := DCSRequest{Measure: "affinity", G1: "old", G2: "new"}
	if code := doJSON(t, s, http.MethodPost, "/v1/dcs", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(resp.Results))
	}
	r := resp.Results[0]
	if len(r.S) != 3 || r.S[0] != 0 || r.S[1] != 2 || r.S[2] != 3 {
		t.Fatalf("S = %v, want [0 2 3]", r.S)
	}
	if math.Abs(r.Affinity-2.25) > 1e-6 {
		t.Fatalf("affinity %v, want 2.25", r.Affinity)
	}
	if len(r.Weights) != len(r.S) {
		t.Fatalf("weights %v not aligned with S %v", r.Weights, r.S)
	}
	sum := 0.0
	for _, w := range r.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("weights sum to %v, want 1", sum)
	}
	if !r.PositiveClique {
		t.Fatalf("affinity result must be a positive clique (Theorem 5)")
	}
}

func TestDCSTotalWeight(t *testing.T) {
	s := New(Config{})
	upload(t, s)
	var resp DCSResponse
	req := DCSRequest{Measure: "totalweight", G1: "old", G2: "new"}
	if code := doJSON(t, s, http.MethodPost, "/v1/dcs", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(resp.Results))
	}
	// The DCS under average degree has W_D = 20; the total-weight objective
	// can only do better (Section VI-E: the largest subgraphs).
	if r := resp.Results[0]; r.TotalWeight < 20 {
		t.Fatalf("total weight %v, want >= 20", r.TotalWeight)
	}
}

func TestDCSRatio(t *testing.T) {
	s := New(Config{})
	tri := GraphJSON{N: 3, Edges: []EdgeJSON{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}}}
	tri3 := GraphJSON{N: 3, Edges: []EdgeJSON{{0, 1, 3}, {1, 2, 3}, {0, 2, 3}}}

	var resp DCSResponse
	req := DCSRequest{Measure: "ratio", Graph1: &tri, Graph2: &tri3}
	if code := doJSON(t, s, http.MethodPost, "/v1/dcs", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Ratio == nil || resp.Ratio.Unbounded {
		t.Fatalf("ratio %+v, want bounded", resp.Ratio)
	}
	if resp.Ratio.Alpha < 2.9 || resp.Ratio.Alpha > 3+1e-9 {
		t.Fatalf("alpha %v, want ~3", resp.Ratio.Alpha)
	}
	if math.Abs(resp.Ratio.Density2-resp.Ratio.Alpha*resp.Ratio.Density1) > 0.5 {
		t.Fatalf("witness densities %v vs %v at alpha %v", resp.Ratio.Density2, resp.Ratio.Density1, resp.Ratio.Alpha)
	}

	// An edge present only in G2 makes the supremum unbounded (Section III-C).
	extra := GraphJSON{N: 4, Edges: append(append([]EdgeJSON{}, tri3.Edges...), EdgeJSON{0, 3, 2})}
	tri4 := GraphJSON{N: 4, Edges: tri.Edges}
	resp = DCSResponse{}
	req = DCSRequest{Measure: "ratio", Graph1: &tri4, Graph2: &extra}
	if code := doJSON(t, s, http.MethodPost, "/v1/dcs", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Ratio == nil || !resp.Ratio.Unbounded {
		t.Fatalf("ratio %+v, want unbounded", resp.Ratio)
	}
}

// twoCliquePair plants two vertex-disjoint rising cliques, the top-k fixture.
func twoCliquePair() (g1, g2 GraphJSON) {
	g1 = GraphJSON{N: 8}
	g2 = GraphJSON{N: 8, Edges: []EdgeJSON{
		{0, 1, 5}, {0, 2, 5}, {1, 2, 5}, // strong clique
		{4, 5, 3}, {4, 6, 3}, {5, 6, 3}, // weaker clique
	}}
	return
}

func TestDCSTopK(t *testing.T) {
	s := New(Config{})
	g1, g2 := twoCliquePair()
	for _, measure := range []string{"avgdeg", "affinity"} {
		var resp DCSResponse
		req := DCSRequest{Measure: measure, Graph1: &g1, Graph2: &g2, K: 3}
		if code := doJSON(t, s, http.MethodPost, "/v1/dcs", req, &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", measure, code)
		}
		if len(resp.Results) != 2 {
			t.Fatalf("%s: got %d results, want 2 (only two positive groups exist)", measure, len(resp.Results))
		}
		first, second := resp.Results[0], resp.Results[1]
		if len(first.S) != 3 || first.S[0] != 0 {
			t.Fatalf("%s: first result %v, want the strong clique {0,1,2}", measure, first.S)
		}
		if len(second.S) != 3 || second.S[0] != 4 {
			t.Fatalf("%s: second result %v, want the weaker clique {4,5,6}", measure, second.S)
		}
	}
}

func TestDCSAlphaQuasiContrast(t *testing.T) {
	s := New(Config{})
	// One edge doubles (2 -> 4), another only grows 1.5x (2 -> 3). With
	// alpha=1.8 only the doubling edge stays positive in GD = G2 − 1.8·G1.
	g1 := GraphJSON{N: 4, Edges: []EdgeJSON{{0, 1, 2}, {2, 3, 2}}}
	g2 := GraphJSON{N: 4, Edges: []EdgeJSON{{0, 1, 4}, {2, 3, 3}}}
	var resp DCSResponse
	req := DCSRequest{Measure: "avgdeg", Graph1: &g1, Graph2: &g2, Alpha: fp(1.8)}
	if code := doJSON(t, s, http.MethodPost, "/v1/dcs", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	r := resp.Results[0]
	if len(r.S) != 2 || r.S[0] != 0 || r.S[1] != 1 {
		t.Fatalf("S = %v, want [0 1] (the doubling edge)", r.S)
	}
	if resp.Alpha != 1.8 {
		t.Fatalf("echoed alpha %v, want 1.8", resp.Alpha)
	}
}

// TestDCSAlphaZero is the regression test for the α = 0 decoding bug: an
// explicit 0 used to be indistinguishable from "absent" and silently ran
// with α = 1. With α = 0 the difference graph is G2 itself, so a subgraph
// that shrank from G1 to G2 must still be mined on its G2 strength alone.
func TestDCSAlphaZero(t *testing.T) {
	s := New(Config{})
	// The triangle {0,1,2} is strong in BOTH eras (barely changed); the edge
	// (3,4) is new. Under α = 1 the contrast is the new edge; under α = 0
	// (pure G2 density) the triangle wins.
	g1 := GraphJSON{N: 5, Edges: []EdgeJSON{{0, 1, 10}, {1, 2, 10}, {0, 2, 10}}}
	g2 := GraphJSON{N: 5, Edges: []EdgeJSON{{0, 1, 10}, {1, 2, 10}, {0, 2, 10}, {3, 4, 3}}}

	run := func(alpha *float64) DCSResponse {
		var resp DCSResponse
		req := DCSRequest{Measure: "avgdeg", Graph1: &g1, Graph2: &g2, Alpha: alpha}
		if code := doJSON(t, s, http.MethodPost, "/v1/dcs", req, &resp); code != http.StatusOK {
			t.Fatalf("alpha=%v: status %d", alpha, code)
		}
		return resp
	}

	dflt := run(nil)
	if len(dflt.Results) != 1 || len(dflt.Results[0].S) != 2 || dflt.Results[0].S[0] != 3 {
		t.Fatalf("default alpha: S = %+v, want the new edge {3,4}", dflt.Results)
	}
	if dflt.Alpha != 1 {
		t.Fatalf("absent alpha echoed as %v, want the default 1", dflt.Alpha)
	}

	zero := run(fp(0))
	if len(zero.Results) != 1 {
		t.Fatalf("alpha=0: got %d results", len(zero.Results))
	}
	r := zero.Results[0]
	if len(r.S) != 3 || r.S[0] != 0 || r.S[1] != 1 || r.S[2] != 2 {
		t.Fatalf("alpha=0: S = %v, want the G2-dense triangle [0 1 2] (alpha silently defaulted to 1?)", r.S)
	}
	// Density on GD = G2: the triangle's average degree 2·30/3 = 20.
	if math.Abs(r.Density-20) > 1e-9 {
		t.Fatalf("alpha=0 density %v, want 20 (pure G2 difference graph)", r.Density)
	}

	// Explicit negative alpha still rejected.
	if code := doJSON(t, s, http.MethodPost, "/v1/dcs",
		DCSRequest{Measure: "avgdeg", Graph1: &g1, Graph2: &g2, Alpha: fp(-1)}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative alpha: status %d, want 400", code)
	}
}

func TestDCSMixedInlineAndNamed(t *testing.T) {
	s := New(Config{})
	upload(t, s)
	_, g2 := fig1Pair()
	var resp DCSResponse
	req := DCSRequest{Measure: "avgdeg", G1: "old", Graph2: &g2}
	if code := doJSON(t, s, http.MethodPost, "/v1/dcs", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !resp.G2.Inline || resp.G2.Name != "" {
		t.Fatalf("g2 ref %+v, want inline", resp.G2)
	}
	if len(resp.Results) != 1 || len(resp.Results[0].S) != 3 {
		t.Fatalf("unexpected results %+v", resp.Results)
	}
}

func TestDCSErrors(t *testing.T) {
	s := New(Config{})
	upload(t, s)
	g1, _ := fig1Pair()
	small := GraphJSON{N: 3}
	cases := []struct {
		name string
		req  DCSRequest
		want int
	}{
		{"missing measure", DCSRequest{G1: "old", G2: "new"}, http.StatusBadRequest},
		{"bad measure", DCSRequest{Measure: "modularity", G1: "old", G2: "new"}, http.StatusBadRequest},
		{"unknown snapshot", DCSRequest{Measure: "avgdeg", G1: "nope", G2: "new"}, http.StatusBadRequest},
		{"missing g2", DCSRequest{Measure: "avgdeg", G1: "old"}, http.StatusBadRequest},
		{"both name and inline", DCSRequest{Measure: "avgdeg", G1: "old", Graph1: &g1, G2: "new"}, http.StatusBadRequest},
		{"mismatched n", DCSRequest{Measure: "avgdeg", G1: "old", Graph2: &small}, http.StatusBadRequest},
		{"negative k", DCSRequest{Measure: "avgdeg", G1: "old", G2: "new", K: -1}, http.StatusBadRequest},
		{"negative alpha", DCSRequest{Measure: "avgdeg", G1: "old", G2: "new", Alpha: fp(-2)}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code := doJSON(t, s, http.MethodPost, "/v1/dcs", c.req, nil); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
	}
	if code := doJSON(t, s, http.MethodGet, "/v1/dcs", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/dcs: status %d, want 405", code)
	}
}

func TestTopics(t *testing.T) {
	s := New(Config{})
	g1, g2 := twoCliquePair()
	for _, req := range []SnapshotRequest{
		{Name: "era1", GraphJSON: g1},
		{Name: "era2", GraphJSON: g2},
	} {
		if code := doJSON(t, s, http.MethodPost, "/v1/snapshots", req, nil); code != http.StatusOK {
			t.Fatalf("upload: status %d", code)
		}
	}

	var resp TopicsResponse
	if code := doJSON(t, s, http.MethodGet, "/v1/topics?g1=era1&g2=era2&k=5", nil, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Direction != "emerging" || len(resp.Topics) != 2 {
		t.Fatalf("got %d %s topics, want 2 emerging", len(resp.Topics), resp.Direction)
	}
	if resp.Topics[0].Affinity < resp.Topics[1].Affinity {
		t.Fatalf("topics not sorted by affinity: %v", resp.Topics)
	}

	// Swapping direction finds the same cliques as contrasts of era1 over era2.
	var rev TopicsResponse
	if code := doJSON(t, s, http.MethodGet, "/v1/topics?g1=era2&g2=era1&direction=disappearing", nil, &rev); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if rev.Direction != "disappearing" || len(rev.Topics) != 2 {
		t.Fatalf("got %d %s topics, want 2 disappearing", len(rev.Topics), rev.Direction)
	}

	for _, bad := range []string{
		"/v1/topics",                       // missing params
		"/v1/topics?g1=era1",               // missing g2
		"/v1/topics?g1=era1&g2=nope",       // unknown snapshot
		"/v1/topics?g1=era1&g2=era2&k=0",   // bad k
		"/v1/topics?g1=era1&g2=era2&k=bad", // unparsable k
		"/v1/topics?g1=era1&g2=era2&direction=sideways",
	} {
		if code := doJSON(t, s, http.MethodGet, bad, nil, nil); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", bad, code)
		}
	}
	if code := doJSON(t, s, http.MethodPost, "/v1/topics?g1=era1&g2=era2", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/topics: status %d, want 405", code)
	}
}

func TestRequestLimits(t *testing.T) {
	s := New(Config{MaxVertices: 100, MaxBodyBytes: 512})
	huge := GraphJSON{N: 1000}
	req := DCSRequest{Measure: "avgdeg", Graph1: &huge, Graph2: &huge}
	if code := doJSON(t, s, http.MethodPost, "/v1/dcs", req, nil); code != http.StatusBadRequest {
		t.Errorf("oversized inline n: status %d, want 400", code)
	}
	if code := doJSON(t, s, http.MethodPost, "/v1/snapshots", SnapshotRequest{Name: "x", GraphJSON: huge}, nil); code != http.StatusBadRequest {
		t.Errorf("oversized snapshot n: status %d, want 400", code)
	}
	fat := GraphJSON{N: 100}
	for i := 1; i < 60; i++ {
		fat.Edges = append(fat.Edges, EdgeJSON{0, i, 1})
	}
	if code := doJSON(t, s, http.MethodPost, "/v1/snapshots", SnapshotRequest{Name: "x", GraphJSON: fat}, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", code)
	}
	// Operator preloads bypass MaxVertices by design.
	s.Store().Put("big", mustBuild(t, &huge))
	small := GraphJSON{N: 1000}
	req = DCSRequest{Measure: "avgdeg", G1: "big", Graph2: &small}
	if code := doJSON(t, s, http.MethodPost, "/v1/dcs", req, nil); code != http.StatusBadRequest {
		t.Errorf("inline n above limit even when matching a preload: status %d, want 400", code)
	}
}

func TestPoolExhaustion(t *testing.T) {
	s := New(Config{PoolSize: 1, QueueTimeout: 20 * time.Millisecond})
	upload(t, s)
	// Occupy the only slot so the request cannot be admitted in time.
	if err := s.pool.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.release()
	req := DCSRequest{Measure: "avgdeg", G1: "old", G2: "new"}
	if code := doJSON(t, s, http.MethodPost, "/v1/dcs", req, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
	// Validation failures are rejected before admission, so a full pool does
	// not delay them.
	bad := DCSRequest{Measure: "avgdeg", G1: "nope", G2: "new"}
	if code := doJSON(t, s, http.MethodPost, "/v1/dcs", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
}
