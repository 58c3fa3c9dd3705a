package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	dcs "github.com/dcslib/dcs"
	"github.com/dcslib/dcs/internal/dataio"
)

// openTest opens a persistent server over dir with the periodic checkpoint
// loop effectively off (tests flush explicitly, so timing never matters).
func openTest(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := Open(Config{CheckpointInterval: -1}, dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func testGraph(weights ...float64) *dcs.Graph {
	b := dcs.NewBuilder(len(weights) + 1)
	for i, w := range weights {
		b.AddEdge(i, i+1, w)
	}
	return b.Build()
}

// snapGraph acquires a snapshot's graph for assertions. The pin is released
// at test end — plenty, since tests never run a memory budget small enough
// to need the slot back.
func snapGraph(t *testing.T, s *Snapshot) *dcs.Graph {
	t.Helper()
	g, release, err := s.Acquire()
	if err != nil {
		t.Fatalf("Acquire(%s v%d): %v", s.Name, s.Version, err)
	}
	t.Cleanup(release)
	return g
}

func TestPersistSnapshotSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("alpha", testGraph(1.5, -2.25, 1e-300))
	s.Store().Put("beta", testGraph(7))
	s.Store().Put("beta", testGraph(8, 9)) // replace: beta is version 2
	// No Close, no Flush: snapshots are write-through, so simply dropping
	// the process (kill -9) after Put returns must lose nothing.

	s2 := openTest(t, dir)
	defer s2.Close()
	st := s2.PersistStats()
	if !st.Enabled || st.SnapshotsRestored != 2 || st.RestoreErrors != 0 {
		t.Fatalf("restore stats %+v", st)
	}
	a, ok := s2.Store().Get("alpha")
	if !ok || a.Version != 1 || snapGraph(t, a).Weight(2, 3) != 1e-300 {
		t.Fatalf("alpha restored wrong: %+v", a)
	}
	b, ok := s2.Store().Get("beta")
	if !ok || b.Version != 2 || snapGraph(t, b).N() != 3 || snapGraph(t, b).Weight(1, 2) != 9 {
		t.Fatalf("beta restored wrong: %+v", b)
	}
	// Further puts continue the version sequence.
	if info, _ := s2.Store().Put("beta", testGraph(1)); info.Version != 3 {
		t.Fatalf("post-restart put: version %d, want 3", info.Version)
	}
}

func TestPersistVersionsSurviveDeleteAndRestart(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("g", testGraph(1))
	s.Store().Put("g", testGraph(2))
	s.Store().Delete("g")

	s2 := openTest(t, dir)
	defer s2.Close()
	if _, ok := s2.Store().Get("g"); ok {
		t.Fatal("deleted snapshot came back")
	}
	// The tombstone preserved the counter: a re-created name must NOT mint a
	// second "version 1" (diff-cache ABA protection).
	if info, _ := s2.Store().Put("g", testGraph(3)); info.Version != 3 {
		t.Fatalf("re-created after delete+restart: version %d, want 3", info.Version)
	}
}

func TestPersistCrashDebrisRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("g", testGraph(4.5))

	// Simulate a crash between the new version's graph-file rename and the
	// manifest rename: an orphaned v2 graph plus a stray temp file.
	snapDir := filepath.Join(dir, "snapshots")
	orphan := filepath.Join(snapDir, "g.v2.dcsg")
	if err := os.WriteFile(orphan, []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(snapDir, "g.json.tmp")
	if err := os.WriteFile(tmp, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir)
	defer s2.Close()
	snap, ok := s2.Store().Get("g")
	if !ok || snap.Version != 1 || snapGraph(t, snap).Weight(0, 1) != 4.5 {
		t.Fatalf("last committed version not recovered: %+v", snap)
	}
	if st := s2.PersistStats(); st.RestoreErrors != 0 {
		t.Fatalf("clean debris recovery counted errors: %+v", st)
	}
	for _, f := range []string{orphan, tmp} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("crash debris %s not swept", f)
		}
	}
}

func TestPersistCorruptGraphFileDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("good", testGraph(1))
	s.Store().Put("bad", testGraph(2))

	// Flip a byte inside the committed graph file: the codec checksum must
	// catch it, the snapshot is skipped, the rest of the store boots.
	badFile := filepath.Join(dir, "snapshots", "bad.v1.dcsg")
	data, err := os.ReadFile(badFile)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-7] ^= 0x10
	if err := os.WriteFile(badFile, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir)
	defer s2.Close()
	if _, ok := s2.Store().Get("good"); !ok {
		t.Fatal("intact snapshot lost")
	}
	if _, ok := s2.Store().Get("bad"); ok {
		t.Fatal("corrupt snapshot restored")
	}
	st := s2.PersistStats()
	if st.SnapshotsRestored != 1 || st.RestoreErrors != 1 {
		t.Fatalf("stats %+v, want 1 restored / 1 error", st)
	}
	var h HealthResponse
	if code := doJSON(t, s2, http.MethodGet, "/healthz", nil, &h); code != http.StatusOK || h.Status != "degraded" {
		t.Fatalf("healthz after a corrupt restore: %d %q, want 200 degraded", code, h.Status)
	}
	// The corrupt name's version counter still survived via its manifest.
	if info, _ := s2.Store().Put("bad", testGraph(3)); info.Version != 2 {
		t.Fatalf("version after corrupt restore: %d, want 2", info.Version)
	}
}

func TestPersistStaleDeleteDoesNotClobberRecreation(t *testing.T) {
	// The hooks run outside the store lock, so a delete and a re-creation
	// racing can reach the persister out of order: save(v2) first, then the
	// delete that observed v1. The stale delete must be discarded — a
	// tombstone here would destroy the live v2 and regress the counter.
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("g", testGraph(1))
	snap, _ := s.Store().Get("g")
	g2 := testGraph(2)
	s.persist.saveSnapshot(newSnapshot("g", 2, g2, snap.UpdatedAt), g2)
	s.persist.deleteSnapshot("g", 1) // stale: v2 is already durable

	s2 := openTest(t, dir)
	defer s2.Close()
	got, ok := s2.Store().Get("g")
	if !ok || got.Version != 2 || snapGraph(t, got).Weight(0, 1) != 2 {
		t.Fatalf("stale delete clobbered the re-created snapshot: %v %+v", ok, got)
	}
}

func TestPersistCorruptManifestSparesGraphFile(t *testing.T) {
	// A corrupt ~200-byte manifest must not cause the sweep to delete the
	// intact, checksummed graph it references — the payload stays on disk
	// for manual recovery even though the snapshot cannot be restored.
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("g", testGraph(3))
	manifest := filepath.Join(dir, "snapshots", "g.json")
	if err := os.WriteFile(manifest, []byte("{ not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir)
	defer s2.Close()
	if _, ok := s2.Store().Get("g"); ok {
		t.Fatal("snapshot restored from a corrupt manifest")
	}
	if st := s2.PersistStats(); st.RestoreErrors != 1 {
		t.Fatalf("stats %+v, want 1 restore error", st)
	}
	for _, f := range []string{manifest, filepath.Join(dir, "snapshots", "g.v1.dcsg")} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("%s swept despite the unreadable manifest: %v", f, err)
		}
	}
}

func TestPersistWriteFailureSurfaces(t *testing.T) {
	// When the write-through mirror fails, the upload must NOT answer 200:
	// that would promise a durability the disk refused. (The in-memory
	// registry still takes the snapshot — readers keep working.)
	dir := t.TempDir()
	s := openTest(t, dir)
	defer s.Close()
	// Replace the snapshots directory with a file: every temp-file create
	// under it now fails with ENOTDIR, even when the tests run as root.
	snapDir := filepath.Join(dir, "snapshots")
	if err := os.RemoveAll(snapDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapDir, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	body := SnapshotRequest{Name: "g", GraphJSON: GraphJSON{N: 2, Edges: []EdgeJSON{{U: 0, V: 1, W: 1}}}}
	if code := doJSON(t, s, http.MethodPost, "/v1/snapshots", body, nil); code != http.StatusInternalServerError {
		t.Fatalf("upload with a broken mirror answered %d, want 500", code)
	}
	if st := s.PersistStats(); st.WriteErrors == 0 {
		t.Fatalf("write failure not counted: %+v", st)
	}
	var h HealthResponse
	if code := doJSON(t, s, http.MethodGet, "/healthz", nil, &h); code != http.StatusOK || h.Status != "degraded" {
		t.Fatalf("healthz after a failed write: %d %q, want 200 degraded", code, h.Status)
	}
	if _, ok := s.Store().Get("g"); !ok {
		t.Fatal("in-memory registry should still hold the snapshot")
	}
	// Watch registration rolls back entirely on a persist failure.
	wdir := filepath.Join(dir, "watches")
	if err := os.RemoveAll(wdir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wdir, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, s, http.MethodPost, "/v1/watches", WatchRequest{Name: "w", N: 3}, nil); code != http.StatusInternalServerError {
		t.Fatalf("watch registration with a broken mirror answered %d, want 500", code)
	}
	if _, ok := s.watches.get("w"); ok {
		t.Fatal("failed registration left the watch registered")
	}
}

func TestPersistEscapedSnapshotNames(t *testing.T) {
	dir := t.TempDir()
	name := ".. spaced%name\x01" // hostile but '/'-free, as the API enforces
	s := openTest(t, dir)
	s.Store().Put(name, testGraph(6))

	s2 := openTest(t, dir)
	defer s2.Close()
	snap, ok := s2.Store().Get(name)
	if !ok || snapGraph(t, snap).Weight(0, 1) != 6 {
		t.Fatalf("escaped name not restored: %v %+v", ok, snap)
	}
}

// TestWatchCheckpointResume is the acceptance test for watch durability: a
// restarted watch's next observe must mine against the checkpointed
// expectation, not a cold tracker. A twin server that never restarts feeds
// on the same deterministic stream; after the restart the two must produce
// bitwise-identical reports (the binary codec round-trips the EWMA state
// exactly).
func TestWatchCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	clique := []int{2, 5, 7, 11}
	snaps := watchStream(42, 24, 6, 4, clique)
	req := WatchRequest{Name: "w", N: 24, Lambda: 0.5, MinDensity: 3}

	restarted := openTest(t, dir)
	twin := New(Config{})
	registerTestWatch(t, restarted, req)
	registerTestWatch(t, twin, req)
	for _, g := range snaps[:4] {
		g := g
		observeWatch(t, restarted, "w", WatchObserveRequest{Graph: &g})
		observeWatch(t, twin, "w", WatchObserveRequest{Graph: &g})
	}
	restarted.Flush()
	restarted.Close()

	s2 := openTest(t, dir)
	defer s2.Close()
	if st := s2.PersistStats(); st.WatchesRestored != 1 {
		t.Fatalf("stats %+v, want 1 watch restored", st)
	}
	var infos []WatchInfo
	if code := doJSON(t, s2, http.MethodGet, "/v1/watches", nil, &infos); code != http.StatusOK || len(infos) != 1 {
		t.Fatalf("watch list after restart: %d %v", code, infos)
	}
	if infos[0].Name != "w" || infos[0].Step != 4 || infos[0].Lambda != 0.5 || infos[0].MinDensity != 3 {
		t.Fatalf("restored watch info %+v", infos[0])
	}

	// The report ring survived the restart.
	var ring WatchReportsResponse
	if code := doJSON(t, s2, http.MethodGet, "/v1/watches/w/reports", nil, &ring); code != http.StatusOK {
		t.Fatalf("reports after restart: %d", code)
	}
	if len(ring.Reports) != 4 || ring.Reports[3].Step != 4 {
		t.Fatalf("restored ring %+v", ring.Reports)
	}

	for i, g := range snaps[4:] {
		g := g
		got := observeWatch(t, s2, "w", WatchObserveRequest{Graph: &g})
		want := observeWatch(t, twin, "w", WatchObserveRequest{Graph: &g})
		if got.Step != want.Step || got.Anomalous != want.Anomalous ||
			math.Float64bits(got.Contrast) != math.Float64bits(want.Contrast) {
			t.Fatalf("post-restart tick %d diverged: got %+v, want %+v", i, got, want)
		}
	}
	// Sanity on the scenario itself: the clique planted at step 4 was
	// absorbed pre-restart, so the restored expectation must NOT re-report
	// it — a cold tracker would.
	cold := New(Config{})
	registerTestWatch(t, cold, req)
	g := snaps[4]
	coldRep := observeWatch(t, cold, "w", WatchObserveRequest{Graph: &g})
	if !coldRep.Anomalous {
		t.Fatal("scenario broken: a cold tracker should flag the planted clique")
	}
}

// TestWatchDeltaResume feeds post-restart observations as edge deltas: the
// checkpointed delta base (last observation) must be what they apply to.
// The twin feeds full snapshots, so agreement is up to the incremental
// engine's floating-point tolerance, not bitwise.
func TestWatchDeltaResume(t *testing.T) {
	dir := t.TempDir()
	snaps := watchStream(7, 16, 5, 3, []int{1, 3, 8})
	req := WatchRequest{Name: "d", N: 16, Lambda: 0.4}

	restarted := openTest(t, dir)
	twin := New(Config{})
	for _, s := range []*Server{restarted, twin} {
		registerTestWatch(t, s, req)
		for _, g := range snaps[:3] {
			g := g
			observeWatch(t, s, "d", WatchObserveRequest{Graph: &g})
		}
	}
	restarted.Flush()
	restarted.Close()

	s2 := openTest(t, dir)
	defer s2.Close()
	for i := 3; i < len(snaps); i++ {
		delta := DeltaBetween(snaps[i-1], snaps[i])
		got := observeWatch(t, s2, "d", WatchObserveRequest{Delta: delta})
		g := snaps[i]
		want := observeWatch(t, twin, "d", WatchObserveRequest{Graph: &g})
		if got.Step != want.Step || got.Anomalous != want.Anomalous ||
			!approxEq(got.Contrast, want.Contrast) {
			t.Fatalf("delta tick %d diverged after restart: got %+v, want %+v", i, got, want)
		}
	}
	// The first post-restart delta tick has no warm-start prior and must
	// have re-solved from scratch.
	var ring WatchReportsResponse
	if code := doJSON(t, s2, http.MethodGet, "/v1/watches/d/reports", nil, &ring); code != http.StatusOK {
		t.Fatalf("reports: %d", code)
	}
	for _, r := range ring.Reports {
		if r.Step == 4 && r.Mode != "scratch" {
			t.Fatalf("first post-restart delta tick mode %q, want scratch", r.Mode)
		}
	}
}

// graphBytes encodes g canonically, so two graphs compare bitwise by bytes.
func graphBytes(t *testing.T, g *dcs.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dcs.WriteGraphBinaryV2(&buf, g, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// binaryFileVersion reads the format version from a binary graph file's
// header.
func binaryFileVersion(t *testing.T, path string) uint16 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil || len(data) < 6 {
		t.Fatalf("read %s: %v (%d bytes)", path, err, len(data))
	}
	return binary.LittleEndian.Uint16(data[4:6])
}

// TestWatchV1CheckpointLoads boots from a data directory whose watch
// checkpoint holds version-1 graph files, the format watch checkpoints were
// written in before they moved to version 2. The watch must come back at
// the same step with a bitwise-identical expectation and delta base, and
// its next checkpoint is written as version 2.
func TestWatchV1CheckpointLoads(t *testing.T) {
	dir := t.TempDir()
	snaps := watchStream(42, 24, 6, 4, []int{2, 5, 7, 11})
	s := openTest(t, dir)
	registerTestWatch(t, s, WatchRequest{Name: "w", N: 24, Lambda: 0.5, MinDensity: 3})
	for _, g := range snaps[:4] {
		g := g
		observeWatch(t, s, "w", WatchObserveRequest{Graph: &g})
	}
	s.Flush()
	wt, ok := s.watches.get("w")
	if !ok {
		t.Fatal("watch missing before restart")
	}
	man, expect, last := wt.checkpointState()
	s.Close()

	watchDir := filepath.Join(dir, "watches")
	readManifest := func() watchManifest {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(watchDir, fsKey("w")+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var m watchManifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	onDisk := readManifest()
	for _, f := range []struct {
		name string
		g    *dcs.Graph
	}{{onDisk.ExpectFile, expect}, {onDisk.LastFile, last}} {
		path := filepath.Join(watchDir, f.name)
		if v := binaryFileVersion(t, path); v != 2 {
			t.Fatalf("%s written as version %d, want 2", f.name, v)
		}
		var buf bytes.Buffer
		if err := dataio.WriteBinary(&buf, f.g); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if v := binaryFileVersion(t, path); v != 1 {
			t.Fatalf("%s rewritten as version %d, want 1", f.name, v)
		}
	}

	s2 := openTest(t, dir)
	defer s2.Close()
	if st := s2.PersistStats(); st.WatchesRestored != 1 || st.RestoreErrors != 0 {
		t.Fatalf("stats %+v, want 1 watch restored without errors", st)
	}
	wt2, ok := s2.watches.get("w")
	if !ok {
		t.Fatal("v1 checkpoint not restored")
	}
	man2, expect2, last2 := wt2.checkpointState()
	if man2.Step != man.Step || man2.Step != 4 {
		t.Fatalf("restored step %d, want %d", man2.Step, man.Step)
	}
	if !bytes.Equal(graphBytes(t, expect2), graphBytes(t, expect)) {
		t.Fatal("restored expectation differs from the checkpointed one")
	}
	if !bytes.Equal(graphBytes(t, last2), graphBytes(t, last)) {
		t.Fatal("restored delta base differs from the checkpointed one")
	}

	g := snaps[4]
	if rep := observeWatch(t, s2, "w", WatchObserveRequest{Graph: &g}); rep.Step != 5 {
		t.Fatalf("first observe after restart: step %d, want 5", rep.Step)
	}
	s2.Flush()
	next := readManifest()
	for _, f := range []string{next.ExpectFile, next.LastFile} {
		if v := binaryFileVersion(t, filepath.Join(watchDir, f)); v != 2 {
			t.Fatalf("re-checkpointed %s as version %d, want 2", f, v)
		}
	}
}

func TestWatchRegistrationAloneSurvivesRestart(t *testing.T) {
	// A watch registered and never observed must come back (write-through
	// checkpoint at registration) even without Flush or Close.
	dir := t.TempDir()
	s := openTest(t, dir)
	registerTestWatch(t, s, WatchRequest{Name: "fresh", N: 5, Measure: "affinity"})

	s2 := openTest(t, dir)
	defer s2.Close()
	wt, ok := s2.watches.get("fresh")
	if !ok || wt.measure != "affinity" || wt.n != 5 {
		t.Fatalf("unobserved watch not restored: %v", ok)
	}
	// And it is observable immediately.
	g := GraphJSON{N: 5, Edges: []EdgeJSON{{U: 0, V: 1, W: 9}}}
	rep := observeWatch(t, s2, "fresh", WatchObserveRequest{Graph: &g})
	if rep.Step != 1 {
		t.Fatalf("first observe after restart: step %d", rep.Step)
	}
}

func TestWatchDeletePersists(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	registerTestWatch(t, s, WatchRequest{Name: "gone", N: 4})
	if code := doJSON(t, s, http.MethodDelete, "/v1/watches/gone", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}

	s2 := openTest(t, dir)
	defer s2.Close()
	if _, ok := s2.watches.get("gone"); ok {
		t.Fatal("deleted watch resurrected by restart")
	}
	if st := s2.PersistStats(); st.WatchesRestored != 0 || st.RestoreErrors != 0 {
		t.Fatalf("stats %+v", st)
	}
	// No stray files either.
	entries, err := os.ReadDir(filepath.Join(dir, "watches"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), "gone") {
			t.Fatalf("leftover watch file %s", e.Name())
		}
	}
}

func TestWatchDeleteDoesNotEraseReRegistration(t *testing.T) {
	// The delete handler removes from the registry, then (later) removes the
	// files. If a new same-named watch registers in between, its durable
	// state — promised by the registration's 200 — must survive the delayed
	// file removal.
	dir := t.TempDir()
	s := openTest(t, dir)
	registerTestWatch(t, s, WatchRequest{Name: "w", N: 4})
	s.watches.remove("w") // T1's registry remove committed...
	registerTestWatch(t, s, WatchRequest{Name: "w", N: 9, Measure: "affinity"})
	s.persist.deleteWatch("w") // ...and its file removal arrives only now

	s2 := openTest(t, dir)
	defer s2.Close()
	wt, ok := s2.watches.get("w")
	if !ok || wt.n != 9 || wt.measure != "affinity" {
		t.Fatalf("re-registered watch erased by the stale delete: %v", ok)
	}
}

func TestHealthzReportsPersistence(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.Store().Put("h", testGraph(1))
	registerTestWatch(t, s, WatchRequest{Name: "hw", N: 3})
	s.Close()

	s2 := openTest(t, dir)
	defer s2.Close()
	var health HealthResponse
	if code := doJSON(t, s2, http.MethodGet, "/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	p := health.Persistence
	if !p.Enabled || p.SnapshotsRestored != 1 || p.WatchesRestored != 1 {
		t.Fatalf("healthz persistence %+v", p)
	}
	if health.Status != "ok" {
		t.Fatalf("healthz status after a clean restore = %q, want ok", health.Status)
	}

	// In-memory servers advertise persistence as disabled.
	mem := New(Config{})
	var memHealth HealthResponse
	doJSON(t, mem, http.MethodGet, "/healthz", nil, &memHealth)
	if memHealth.Persistence.Enabled {
		t.Fatal("in-memory server claims persistence")
	}
}
