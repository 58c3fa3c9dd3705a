package dataio

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dcslib/dcs/internal/graph"
)

// randomGraph builds a random graph with signed, "awkward" float64 weights
// (subnormals, huge magnitudes, many mantissa bits) so round-trip tests
// exercise bitwise weight fidelity, not just friendly decimals.
func randomGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	type pair struct{ u, v int }
	seen := map[pair]bool{}
	for k := 0; k < 3*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[pair{u, v}] {
			continue
		}
		seen[pair{u, v}] = true
		var w float64
		switch rng.Intn(4) {
		case 0:
			w = float64(rng.Intn(19) - 9)
		case 1:
			w = (rng.Float64() - 0.5) * 1e-300
		case 2:
			w = (rng.Float64() - 0.5) * 1e300
		default:
			w = rng.NormFloat64()
		}
		if w == 0 {
			w = 1
		}
		b.AddEdge(u, v, w)
	}
	return b.Build()
}

// sameGraph reports whether two graphs agree on n, m and every edge weight
// bitwise (including the sign of zero — though built graphs never store 0).
func sameGraph(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	ok := true
	a.VisitEdges(func(u, v int, w float64) {
		if math.Float64bits(b.Weight(u, v)) != math.Float64bits(w) {
			ok = false
		}
	})
	return ok
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 7, 50, 301} {
		g := randomGraph(rng, n)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		g2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: read: %v", n, err)
		}
		if !sameGraph(g, g2) {
			t.Fatalf("n=%d: round trip changed the graph", n)
		}
	}
}

func TestBinaryRoundTripView(t *testing.T) {
	// Views must serialize as their visible (compacted) graph.
	g := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: -3}, {U: 3, V: 4, W: 1}})
	view := g.WithoutVertices([]int{4}).PositivePart()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, view); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 5 || g2.M() != 1 || g2.Weight(0, 1) != 2 {
		t.Fatalf("view round trip: n=%d m=%d w01=%v", g2.N(), g2.M(), g2.Weight(0, 1))
	}
}

func TestBinaryTruncation(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 40)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every proper prefix must be rejected; step through representative cuts
	// in each region (header, offsets, entries, checksum).
	cuts := []int{0, 3, 8, 23, 24, 30, len(full) / 2, len(full) - 5, len(full) - 1}
	for _, cut := range cuts {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d of %d accepted", cut, len(full))
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(4)), 10)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] = 'X'
	_, err := ReadBinary(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: got %v", err)
	}
}

func TestBinaryChecksumMismatch(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 30)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one payload bit somewhere past the header: the checksum, not a
	// structural check, must be what rejects it (weights are opaque bits).
	data[len(data)-20] ^= 0x01
	_, err := ReadBinary(bytes.NewReader(data))
	if err == nil {
		t.Fatal("bit flip accepted")
	}
	if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error for bit flip: %v", err)
	}
}

func TestBinaryVersionRejected(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(6)), 5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: got %v", err)
	}
}

func TestBinaryFileAndAutoDispatch(t *testing.T) {
	dir := t.TempDir()
	g := randomGraph(rand.New(rand.NewSource(8)), 25)

	binPath := filepath.Join(dir, "g"+BinaryExt)
	if err := WriteGraphFileAuto(binPath, g); err != nil {
		t.Fatal(err)
	}
	// The auto writer must have produced the binary format.
	head, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(head[:4]) != binaryMagic {
		t.Fatalf("auto .dcsg write produced %q, not the binary format", head[:4])
	}
	g2, err := ReadGraphFileAuto(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Fatal("binary auto round trip changed the graph")
	}

	tsvPath := filepath.Join(dir, "g.tsv")
	if err := WriteGraphFileAuto(tsvPath, g); err != nil {
		t.Fatal(err)
	}
	g3, err := ReadGraphFileAuto(tsvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g3) {
		t.Fatal("tsv auto round trip changed the graph")
	}

	mtxPath := filepath.Join(dir, "g.MTX") // extension match is case-insensitive
	if err := WriteGraphFileAuto(mtxPath, g); err != nil {
		t.Fatal(err)
	}
	g4, err := ReadGraphFileAuto(mtxPath)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g4) {
		t.Fatal("MatrixMarket auto round trip changed the graph")
	}
}

// v1Stream assembles a version-1 binary graph from raw header counts,
// offsets and entries, with a valid trailing checksum — the harness for
// hostile inputs the writer never emits.
func v1Stream(n, e uint64, off []uint64, ids []uint32, ws []float64) []byte {
	var b []byte
	b = append(b, binaryMagic...)
	b = binary.LittleEndian.AppendUint16(b, binaryVersion)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = binary.LittleEndian.AppendUint64(b, n)
	b = binary.LittleEndian.AppendUint64(b, e)
	for _, o := range off {
		b = binary.LittleEndian.AppendUint64(b, o)
	}
	for i, id := range ids {
		b = binary.LittleEndian.AppendUint32(b, id)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ws[i]))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// TestBinaryV1RejectsWideNeighborID feeds a checksummed v1 stream whose
// neighbor id does not fit the graph's int32 ids: ReadBinary must return an
// error, not panic.
func TestBinaryV1RejectsWideNeighborID(t *testing.T) {
	// The honest shape is the single edge (0,1); only row 0's id is widened.
	ok := v1Stream(2, 2, []uint64{0, 1, 2}, []uint32{1, 0}, []float64{1, 1})
	if _, err := ReadBinary(bytes.NewReader(ok)); err != nil {
		t.Fatalf("valid v1 stream rejected: %v", err)
	}
	for _, id := range []uint32{1 << 31, 1<<32 - 1} {
		bad := v1Stream(2, 2, []uint64{0, 1, 2}, []uint32{id, 0}, []float64{1, 1})
		if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
			t.Fatalf("neighbor id %d accepted", id)
		}
	}
}

// TestBinaryHeaderRejectsVertexCountPastMaxN pins both header caps to the
// graph's vertex limit: a count of MaxN+1 fails at the header.
func TestBinaryHeaderRejectsVertexCountPastMaxN(t *testing.T) {
	v1 := v1Stream(graph.MaxN+1, 0, nil, nil, nil)
	if _, err := ReadBinary(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "vertex count") {
		t.Fatalf("v1 header with n = MaxN+1: got %v", err)
	}
	v2 := encodeV2(t, graph.NewBuilder(3).Build(), false)
	binary.LittleEndian.PutUint64(v2[8:16], graph.MaxN+1)
	rechecksum(v2)
	if _, err := parseV2Header(v2); err == nil || !strings.Contains(err.Error(), "vertex count") {
		t.Fatalf("v2 header with n = MaxN+1: got %v", err)
	}
}

func BenchmarkReadBinary(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(9)), 5000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadTSV(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(9)), 5000)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadGraph(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenMappedV2(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(9)), 5000)
	path := filepath.Join(b.TempDir(), "g"+BinaryExt)
	if err := WriteBinaryV2File(path, g, false); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := OpenMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}
