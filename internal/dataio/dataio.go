// Package dataio reads and writes graphs as TSV edge lists, the interchange
// format of the cmd/ tools:
//
//	# comment lines start with '#'
//	n <vertex-count>
//	<u> <v> <weight>
//	...
//
// plus optional label files with one label per line (line i labels vertex i).
package dataio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/dcslib/dcs/internal/graph"
)

const (
	// scanInitBuf is the scanner's initial line buffer.
	scanInitBuf = 64 << 10
	// scanMaxLine caps a single input line. Real corpora carry multi-megabyte
	// comment and header lines; the old 1 MiB cap made them fail with a bare
	// "token too long". 64 MiB admits anything plausibly hand-made while
	// still bounding a hostile unterminated stream.
	scanMaxLine = 64 << 20
)

// newScanner returns a line scanner with the package-wide buffer limits.
func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, scanInitBuf), scanMaxLine)
	return sc
}

// scanErr wraps a scanner error with the line it occurred on (the line after
// the last successfully scanned one), so "token too long" and transport
// errors point at the offending input instead of arriving bare.
func scanErr(err error, lastLine int) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("dataio: line %d: %w", lastLine+1, err)
}

// pathErr prefixes a non-nil read/parse error with the file path. os.Open
// errors already carry the path; parse errors from the io.Reader-based
// readers do not.
func pathErr(path string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", path, err)
}

// WriteGraph writes g in edge-list format.
func WriteGraph(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	var werr error
	g.VisitEdges(func(u, v int, wt float64) {
		if werr != nil {
			return
		}
		_, werr = fmt.Fprintf(bw, "%d\t%d\t%g\n", u, v, wt)
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ReadGraph parses edge-list format.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	sc := newScanner(r)
	var b *graph.Builder
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if b == nil {
			if len(fields) != 2 || fields[0] != "n" {
				return nil, fmt.Errorf("dataio: line %d: expected header \"n <count>\", got %q", line, text)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n > graph.MaxN {
				return nil, fmt.Errorf("dataio: line %d: bad vertex count %q", line, fields[1])
			}
			b = graph.NewBuilder(n)
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("dataio: line %d: expected \"u v w\", got %q", line, text)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		w, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("dataio: line %d: malformed edge %q", line, text)
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("dataio: line %d: non-finite weight %q", line, fields[2])
		}
		if u < 0 || u >= b.N() || v < 0 || v >= b.N() || u == v {
			return nil, fmt.Errorf("dataio: line %d: invalid edge (%d,%d) for n=%d", line, u, v, b.N())
		}
		b.AddEdge(u, v, w)
	}
	if err := scanErr(sc.Err(), line); err != nil {
		return nil, err
	}
	if b == nil {
		return nil, fmt.Errorf("dataio: missing \"n <count>\" header")
	}
	return b.Build(), nil
}

// WriteGraphFile writes g to path.
func WriteGraphFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteGraph(f, g); err != nil {
		return err
	}
	return f.Close()
}

// ReadGraphFile reads a graph from path.
func ReadGraphFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadGraph(f)
	return g, pathErr(path, err)
}

// WriteLabels writes one label per line.
func WriteLabels(w io.Writer, labels []string) error {
	bw := bufio.NewWriter(w)
	for _, l := range labels {
		if strings.ContainsAny(l, "\n\r") {
			return fmt.Errorf("dataio: label %q contains a newline", l)
		}
		if _, err := fmt.Fprintln(bw, l); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLabels reads one label per line.
func ReadLabels(r io.Reader) ([]string, error) {
	sc := newScanner(r)
	var out []string
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out, scanErr(sc.Err(), len(out))
}

// WriteLabelsFile writes labels to path.
func WriteLabelsFile(path string, labels []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteLabels(f, labels); err != nil {
		return err
	}
	return f.Close()
}

// ReadLabelsFile reads labels from path.
func ReadLabelsFile(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	labels, err := ReadLabels(f)
	return labels, pathErr(path, err)
}
