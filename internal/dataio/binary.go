package dataio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"github.com/dcslib/dcs/internal/graph"
)

// This file implements the native binary graph format, the fast path for
// large graphs: the CSR arrays of a graph.Graph are dumped verbatim (see
// graph.CSR), so reading skips all text parsing, per-edge sorting and
// duplicate merging — an order of magnitude faster than the TSV/JSON paths.
// It is the on-disk format of the dcsd persistence layer (serve/persist.go)
// and of the .dcsg files the cmd/ tools read and write by extension.
//
// Layout (all integers little-endian):
//
//	[0:4)    magic "DCSB"
//	[4:6)    format version, uint16 (currently 1)
//	[6:8)    reserved, zero
//	[8:16)   n, uint64 vertex count
//	[16:24)  e, uint64 directed entry count (2m)
//	...      off[0..n], n+1 × uint64
//	...      e entries: neighbor id uint32, weight float64 bits
//	[-4:]    CRC32-C (Castagnoli) of every preceding byte
//
// The trailing checksum covers header and payload, so truncation, bit rot
// and partial writes are detected before a graph is handed to a caller; the
// structural invariants (sorted rows, mirrored entries, finite non-zero
// weights) are re-verified by graph.FromCSR on top of it.

// BinaryExt is the conventional file extension of the binary graph format,
// recognized by the extension-dispatching readers and writers below and by
// the cmd/ tools.
const BinaryExt = ".dcsg"

const (
	binaryMagic   = "DCSB"
	binaryVersion = 1
	// binaryMaxN caps the vertex count accepted from a binary header at the
	// graph's int32-id limit, so a corrupt or hostile size field fails at the
	// header instead of demanding an absurd allocation before the checksum
	// is ever verified.
	binaryMaxN = graph.MaxN
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcWriter updates a running CRC32-C with everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crcTable, p[:n])
	return n, err
}

// WriteBinary writes g in the binary graph format. Views are compacted
// first; the written file always describes a plain graph.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &crcWriter{w: bw}
	off, ids, ws := g.CSR()

	var hdr [24]byte
	copy(hdr[0:4], binaryMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(g.N()))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(ids)))
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}
	// Chunked encoding: one fixed scratch buffer instead of a Write per value.
	var buf [8 * 512]byte
	fill := 0
	flush := func() error {
		if fill == 0 {
			return nil
		}
		_, err := cw.Write(buf[:fill])
		fill = 0
		return err
	}
	for _, o := range off {
		if fill == len(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint64(buf[fill:], uint64(o))
		fill += 8
	}
	if err := flush(); err != nil {
		return err
	}
	ws = ws[:len(ids)]
	for i, id := range ids {
		if fill+12 > len(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint32(buf[fill:], uint32(id))
		binary.LittleEndian.PutUint64(buf[fill+4:], math.Float64bits(ws[i]))
		fill += 12
	}
	if err := flush(); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], cw.crc)
	if _, err := bw.Write(sum[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary reads a graph in the binary format — either version — into an
// ordinary heap graph, verifying the integrity checksums and every
// structural invariant before returning it. A truncated, bit-flipped or
// otherwise corrupt input yields an error, never a malformed graph. For
// zero-copy access to a v2 file use OpenMapped instead.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	pre, err := br.Peek(6)
	if err != nil {
		return nil, fmt.Errorf("dataio: truncated binary graph: %w", err)
	}
	if string(pre[0:4]) != binaryMagic {
		return nil, fmt.Errorf("dataio: bad magic %q: not a binary graph file", pre[0:4])
	}
	switch v := binary.LittleEndian.Uint16(pre[4:6]); v {
	case binaryVersion:
		return readBinaryV1(br)
	case binaryVersion2:
		return readBinaryV2(br)
	default:
		return nil, fmt.Errorf("dataio: unsupported binary graph version %d", v)
	}
}

// readBinaryV1 reads a version-1 file from the start of br.
func readBinaryV1(br *bufio.Reader) (*graph.Graph, error) {
	crc := uint32(0)
	// readFull pulls exactly len(p) payload bytes, folding them into the
	// running checksum.
	readFull := func(p []byte) error {
		if _, err := io.ReadFull(br, p); err != nil {
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				return fmt.Errorf("dataio: truncated binary graph: %w", err)
			}
			return err
		}
		crc = crc32.Update(crc, crcTable, p)
		return nil
	}

	var hdr [24]byte
	if err := readFull(hdr[:]); err != nil {
		return nil, err
	}
	if string(hdr[0:4]) != binaryMagic {
		return nil, fmt.Errorf("dataio: bad magic %q: not a binary graph file", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != binaryVersion {
		return nil, fmt.Errorf("dataio: unsupported binary graph version %d (want %d)", v, binaryVersion)
	}
	if rsv := binary.LittleEndian.Uint16(hdr[6:8]); rsv != 0 {
		return nil, fmt.Errorf("dataio: corrupt header: reserved field %#x", rsv)
	}
	n64 := binary.LittleEndian.Uint64(hdr[8:16])
	e64 := binary.LittleEndian.Uint64(hdr[16:24])
	if n64 > binaryMaxN {
		return nil, fmt.Errorf("dataio: implausible vertex count %d", n64)
	}
	if e64%2 != 0 || e64 > 1<<34 {
		return nil, fmt.Errorf("dataio: implausible entry count %d", e64)
	}
	n, e := int(n64), int(e64)

	// Offsets and entries are read in bounded chunks with capped initial
	// capacity, so a lying header on a truncated file fails at the real end
	// of data instead of pre-allocating the advertised size in one shot.
	// The chunk size divides both record widths (8 and 12), so every chunk
	// holds whole records.
	var buf [24 * 256]byte
	off := make([]int, 0, min(n+1, 1<<22))
	for len(off) < n+1 {
		want := min((n+1-len(off))*8, len(buf))
		if err := readFull(buf[:want]); err != nil {
			return nil, err
		}
		for i := 0; i < want; i += 8 {
			o := binary.LittleEndian.Uint64(buf[i : i+8])
			if o > e64 {
				return nil, fmt.Errorf("dataio: offset %d beyond entry count %d", o, e64)
			}
			off = append(off, int(o))
		}
	}
	// An id ≥ 2^31 converts to a negative int32, which FromCSR rejects as
	// out of range.
	ids := make([]int32, 0, min(e, 1<<22))
	ws := make([]float64, 0, min(e, 1<<22))
	for len(ids) < e {
		want := min((e-len(ids))*12, len(buf))
		if err := readFull(buf[:want]); err != nil {
			return nil, err
		}
		for i := 0; i < want; i += 12 {
			ids = append(ids, int32(binary.LittleEndian.Uint32(buf[i:i+4])))
			ws = append(ws, math.Float64frombits(binary.LittleEndian.Uint64(buf[i+4:i+12])))
		}
	}

	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, fmt.Errorf("dataio: truncated binary graph: missing checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != crc {
		return nil, fmt.Errorf("dataio: binary graph checksum mismatch: file says %#x, content hashes to %#x", got, crc)
	}
	g, err := graph.FromCSR(n, off, ids, ws)
	if err != nil {
		return nil, fmt.Errorf("dataio: corrupt binary graph: %w", err)
	}
	return g, nil
}

// WriteBinaryFile writes g to path in the binary format.
func WriteBinaryFile(path string, g *graph.Graph) error {
	return writeVia(path, g, WriteBinary)
}

// ReadBinaryFile reads a binary-format graph from path.
func ReadBinaryFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadBinary(f)
	return g, pathErr(path, err)
}

// ReadGraphFileAuto reads a graph picking the format by file extension:
// .dcsg is the binary format, .mtx and .mm are MatrixMarket, .snap is a
// SNAP edge list (the original-id table is dropped — ids are the dense
// remap), and anything else is the native TSV edge-list format. This is the
// dispatch behind dcsd -load and the cmd/ tools' format=auto.
func ReadGraphFileAuto(path string) (*graph.Graph, error) {
	switch ext(path) {
	case BinaryExt:
		return ReadBinaryFile(path)
	case ".mtx", ".mm":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err := ReadMatrixMarket(f)
		return g, pathErr(path, err)
	case ".snap":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, _, err := ReadSNAP(f)
		return g, pathErr(path, err)
	default:
		return ReadGraphFile(path)
	}
}

// WriteGraphFileAuto writes g to path picking the format by extension, the
// write-side counterpart of ReadGraphFileAuto: .dcsg binary, .mtx/.mm
// MatrixMarket, .snap SNAP, anything else TSV.
func WriteGraphFileAuto(path string, g *graph.Graph) error {
	switch ext(path) {
	case BinaryExt:
		return WriteBinaryFile(path, g)
	case ".mtx", ".mm":
		return writeVia(path, g, WriteMatrixMarket)
	case ".snap":
		return writeVia(path, g, WriteSNAP)
	default:
		return WriteGraphFile(path, g)
	}
}

// writeVia writes g to path through one of the io.Writer-based writers.
func writeVia(path string, g *graph.Graph, write func(io.Writer, *graph.Graph) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f, g); err != nil {
		return pathErr(path, err)
	}
	return f.Close()
}

// ext returns the lower-cased final extension of path.
func ext(path string) string {
	return strings.ToLower(filepath.Ext(path))
}
