// Command perfbench is the repository benchmark. For one workload it execs
// a dcsd binary as a child process, drives it over loopback HTTP with
// closed-loop clients, checks every answer, and prints the end-to-end
// metrics. With -trace 1 it instead records a span per HTTP op and replays
// the workload's inputs through the public functions of each layer (graph,
// dataio, core, densest, egoscan, par, evolve), printing per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// Run it through perfbench/run.sh, which builds dcsd and this program from
// the checkout; see perfbench/README.md for the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/dcslib/dcs/serve"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is recorded with every result.
type runInfo struct {
	Workload   string   `json:"workload"`
	Why        string   `json:"why"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Go         string   `json:"go"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Commit     string   `json:"commit"`
	DcsdFlags  []string `json:"dcsd_flags"`
	Clients    int      `json:"clients"`
	Setups     int      `json:"setups"`
	GenS       float64  `json:"input_generation_s"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "query-mix | snapshot-churn | watch-stream")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 40, "length of the timed load phase")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		dcsdBin = flag.String("dcsd", "", "dcsd binary to exec")
		work    = flag.String("work", ".bench_build", "directory for data directories, results and spans")
		root    = flag.String("root", ".", "repository root, for the commit record")
	)
	flag.Parse()
	if *dcsdBin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -dcsd, -seconds > 0 and -trace 0|1")
		return 2
	}
	tmpRoot := filepath.Join(*work, "tmp")
	resultsDir := filepath.Join(*work, "results")
	for _, d := range []string{tmpRoot, resultsDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	removeStaleDirs(tmpRoot)

	// An interrupt kills every child and removes its data directory.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-sigc
		live.stopAll()
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopped dcsd, exiting\n", sig)
		os.Exit(130)
	}()
	defer live.stopAll()

	ctx := context.Background()
	info := runInfo{
		Workload: *name, Why: workloadWhy[*name], Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commitOf(*root), Setups: setupRuns,
	}
	genStart := time.Now()
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	info.GenS = time.Since(genStart).Seconds()
	info.DcsdFlags = w.dcsdFlags()
	info.Clients = w.clients()

	out, err := runWorkload(ctx, w, &info, *dcsdBin, tmpRoot, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := out.result
	if out.precheckFailed {
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
		return 1
	}
	if info.Trace {
		res.Metrics = out.serveLayer
		tr := out.tracer
		replayed, err := runReplay(tr, *seed, w, tmpRoot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		for k, v := range replayed {
			res.Metrics[k] = v
		}
		spansPath := filepath.Join(resultsDir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := writeJSONFile(spansPath, map[string]any{"info": info, "spans": tr.spans}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), spansPath)
		printOverhead(resultsDir, *name, *seed, out.endToEnd)
	} else {
		res.Metrics = out.endToEnd
		saved := map[string]any{"info": info, "metrics": out.endToEnd}
		for _, p := range []string{
			filepath.Join(resultsDir, fmt.Sprintf("untraced-%s-seed%d.json", *name, *seed)),
			filepath.Join(resultsDir, fmt.Sprintf("untraced-%s-latest.json", *name)),
		} {
			if err := writeJSONFile(p, saved); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: saving the result:", err)
				return 1
			}
		}
	}
	printMetrics(res.Metrics)
	infoLine, _ := json.Marshal(map[string]any{"info": info})
	fmt.Println(string(infoLine))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type workloadOutcome struct {
	result         result
	precheckFailed bool
	endToEnd       map[string]metric
	serveLayer     map[string]metric
	tracer         *tracer
}

// setupRuns is how many times each run sets dcsd up; setup_s is their
// median and the last set-up serves the load phase.
const setupRuns = 5

// runWorkload sets dcsd up setupRuns times (keeping the last), checks and
// warms it, runs the timed load phase and computes the metrics.
func runWorkload(ctx context.Context, w workload, info *runInfo, bin, tmpRoot string, seconds float64) (*workloadOutcome, error) {
	hc := &http.Client{Timeout: 2 * time.Second}
	var setupS []float64
	var p *dcsdProc
	var c *client
	for i := 0; i < setupRuns; i++ {
		if p != nil {
			p.stop()
		}
		t0 := time.Now()
		var err error
		p, err = startDcsd(bin, tmpRoot, w.dcsdFlags(), w.needsData())
		if err != nil {
			return nil, err
		}
		if err := p.waitHealthy(ctx, hc, 30*time.Second); err != nil {
			return nil, err
		}
		c = newClient(p.base, w.clients()+1)
		if err := w.setup(ctx, c); err != nil {
			return nil, fmt.Errorf("setup: %w (dcsd log: %s)", err, p.stderr.String())
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer p.stop()

	out := &workloadOutcome{}
	if err := w.precheck(ctx, c); err != nil {
		// A wrong answer before timing: report it as a failed, incorrect run.
		fmt.Println("precheck failed:", err)
		out.result = result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
		out.precheckFailed = true
		return out, nil
	}

	var h0, h1 serve.HealthResponse
	if err := c.doJSON(ctx, "GET", "/healthz", nil, &h0); err != nil {
		return nil, err
	}
	var tr *tracer
	if info.Trace {
		tr = newTracer()
	}
	recs, wall := runPhase(ctx, w, c, seconds, tr)
	if err := c.doJSON(ctx, "GET", "/healthz", nil, &h1); err != nil {
		return nil, err
	}
	rss, err := p.peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("reading dcsd peak RSS: %w", err)
	}
	p.stop()
	w.verify(recs)

	failed := 0
	var uploads []float64
	byKind := map[string][]float64{}
	for _, r := range recs {
		if r.Failed {
			failed++
			if failed <= 5 {
				fmt.Printf("failed op %d/%d (%s): %s\n", r.Client, r.Seq, r.Kind, r.Why)
			}
		}
		ms := r.latencyMS()
		byKind[r.Kind] = append(byKind[r.Kind], ms)
		if r.Kind == "upload" {
			uploads = append(uploads, ms)
		}
	}
	if len(recs) == 0 {
		return nil, errors.New("the load phase completed no op")
	}
	out.result = result{Correct: failed == 0, Attempted: len(recs), Failed: failed}
	win, err := windowed(recs, wall)
	if err != nil {
		return nil, fmt.Errorf("%w (lengthen -seconds)", err)
	}
	out.endToEnd = map[string]metric{
		"setup_s":     {median(setupS), "s"},
		"ops_per_s":   {win.opsPerS, "1/s"},
		"p50_ms":      {win.p50, "ms"},
		"p99_ms":      {win.p99, "ms"},
		"peak_rss_mb": {rss, "MiB"},
	}
	fmt.Printf("timed phase in %d windows of %.1fs: ops_per_s %v p50_ms %v p99_ms %v (medians reported)\n",
		win.k, wall.Seconds()/float64(win.k), fmtFloats(win.all[0]), fmtFloats(win.all[1]), fmtFloats(win.all[2]))

	// Printed, not gated: per-kind latency and the failure share.
	fmt.Printf("workload %s: %d ops in %.2fs, failed_frac %.6f (%d/%d), setups %v s\n",
		info.Workload, len(recs), wall.Seconds(), float64(failed)/float64(len(recs)), failed, len(recs), fmtFloats(setupS))
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		v := byKind[k]
		line := fmt.Sprintf("  %-14s n=%-6d mean %.3f ms", k, len(v), mean(v))
		if m, err := percentile(v, 0.5); err == nil {
			line += fmt.Sprintf("  p50 %.3f ms", m)
		}
		if m, err := percentile(v, 0.9); err == nil {
			line += fmt.Sprintf("  p90 %.3f ms", m)
		}
		if m, err := percentile(v, 0.99); err == nil {
			line += fmt.Sprintf("  p99 %.3f ms", m)
		}
		fmt.Println(line)
	}

	if tr != nil {
		out.serveLayer = serveLayerMetrics(recs, uploads, h0, h1, tr)
		out.tracer = tr
	}
	return out, nil
}

// maxWindows bounds how many equal time windows the timed phase is split
// into for the latency and throughput figures.
const maxWindows = 6

type windowStats struct {
	k                 int
	opsPerS, p50, p99 float64
	all               [3][]float64 // per-window ops_per_s, p50, p99
}

// windowed splits the timed phase into k equal time windows (by op end
// time), as many as keep minOps ops in each, at most maxWindows, and
// returns the median over windows of each window's throughput, p50 and p99.
// A host stall confined to one or two windows then moves no figure; with
// one window they are the whole phase's.
func windowed(recs []opRecord, wall time.Duration) (windowStats, error) {
	for k := min(maxWindows, len(recs)/minOps); k > 1; k-- {
		width := wall / time.Duration(k)
		lat := make([][]float64, k)
		for _, r := range recs {
			i := min(k-1, int(r.End/width))
			lat[i] = append(lat[i], r.latencyMS())
		}
		if ws, ok := windowFigures(lat, width); ok {
			return ws, nil
		}
	}
	lat := make([]float64, len(recs))
	for i, r := range recs {
		lat[i] = r.latencyMS()
	}
	if _, err := percentile(lat, 0.99); err != nil {
		return windowStats{}, fmt.Errorf("p99_ms: %w", err)
	}
	ws, _ := windowFigures([][]float64{lat}, wall)
	return ws, nil
}

func windowFigures(lat [][]float64, width time.Duration) (windowStats, bool) {
	ws := windowStats{k: len(lat)}
	for _, l := range lat {
		p50, err1 := percentile(l, 0.50)
		p99, err2 := percentile(l, 0.99)
		if err1 != nil || err2 != nil {
			return ws, false
		}
		ws.all[0] = append(ws.all[0], float64(len(l))/width.Seconds())
		ws.all[1] = append(ws.all[1], p50)
		ws.all[2] = append(ws.all[2], p99)
	}
	ws.opsPerS, ws.p50, ws.p99 = median(ws.all[0]), median(ws.all[1]), median(ws.all[2])
	return ws, true
}

// serveLayerMetrics derives the serve and /healthz-counter per-layer
// metrics of a traced timed phase.
func serveLayerMetrics(recs []opRecord, uploads []float64, h0, h1 serve.HealthResponse, tr *tracer) map[string]metric {
	m := map[string]metric{}
	var solve, overhead, bytes []float64
	// Self time of each op span: client latency minus the server's solve
	// span beneath it.
	children := map[int64][]span{}
	var opSpans []span
	for _, s := range tr.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		} else if s.Trace >= 0 {
			opSpans = append(opSpans, s)
		}
	}
	for _, s := range opSpans {
		if kids := children[s.ID]; len(kids) > 0 {
			overhead = append(overhead, float64(selfTime(s, kids))/1e6)
		}
	}
	for _, r := range recs {
		if r.SolveMS >= 0 {
			solve = append(solve, r.SolveMS)
		}
		bytes = append(bytes, float64(r.Bytes))
	}
	m["serve.solve_ms"] = metric{median(solve), "ms"}
	m["serve.overhead_ms"] = metric{median(overhead), "ms"}
	m["serve.resp_bytes"] = metric{mean(bytes), "bytes"}

	hits := float64(h1.DiffCache.Hits - h0.DiffCache.Hits)
	misses := float64(h1.DiffCache.Misses - h0.DiffCache.Misses)
	m["serve.diffcache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	ops := float64(len(recs))
	m["serve.mem_evictions_per_op"] = metric{ratio(float64(h1.Memory.Evictions-h0.Memory.Evictions), ops), "count"}
	m["serve.mem_remaps_per_op"] = metric{ratio(float64(h1.Memory.Remaps-h0.Memory.Remaps), ops), "count"}
	// Upload latency exists only where the workload uploads (snapshot-churn);
	// elsewhere it reads 0.
	up50, _ := percentile(uploads, 0.5)
	up90, _ := percentile(uploads, 0.9)
	m["serve.upload_p50_ms"] = metric{up50, "ms"}
	m["serve.upload_p90_ms"] = metric{up90, "ms"}

	obs := float64(h1.Watches.Observations - h0.Watches.Observations)
	inc := float64(h1.Watches.IncrementalTicks - h0.Watches.IncrementalTicks)
	warm := float64(h1.Watches.WarmHits - h0.Watches.WarmHits)
	m["evolve.incremental_frac"] = metric{ratio(inc, obs), "ratio"}
	m["evolve.warm_hit_rate"] = metric{ratio(warm, inc), "ratio"}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-30s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printOverhead reports the tracing overhead: this traced run's end-to-end
// numbers minus the last untraced run's for the same workload (same seed
// when one was recorded).
func printOverhead(dir, name string, seed int64, traced map[string]metric) {
	var base struct {
		Info    runInfo           `json:"info"`
		Metrics map[string]metric `json:"metrics"`
	}
	var err error
	for _, f := range []string{fmt.Sprintf("untraced-%s-seed%d.json", name, seed), fmt.Sprintf("untraced-%s-latest.json", name)} {
		var b []byte
		if b, err = os.ReadFile(filepath.Join(dir, f)); err == nil {
			err = json.Unmarshal(b, &base)
			break
		}
	}
	if err != nil {
		fmt.Printf("tracing overhead (%s): no untraced run recorded in this checkout yet\n", name)
		return
	}
	keys := make([]string, 0, len(traced))
	for k := range traced {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("tracing overhead (%s): traced seed %d minus untraced seed %d\n", name, seed, base.Info.Seed)
	for _, k := range keys {
		b, ok := base.Metrics[k]
		if !ok {
			continue
		}
		d := traced[k].Value - b.Value
		fmt.Printf("  %-14s traced %12.4f  untraced %12.4f  diff %+10.4f %s (%+.1f%%)\n",
			k, traced[k].Value, b.Value, d, b.Unit, 100*ratio(d, b.Value))
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// commitOf names the code under test: the git commit when the checkout is a
// git repository, and always a SHA-256 over its Go sources and go.mod (the
// benchmark may run from a plain file copy).
func commitOf(root string) string {
	var parts []string
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			parts = append(parts, "git:"+strings.TrimSpace(string(b)))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err == nil {
		parts = append(parts, "src-sha256:"+hex.EncodeToString(h.Sum(nil))[:16])
	}
	if len(parts) == 0 {
		return "unknown"
	}
	return strings.Join(parts, " ")
}
