package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// A client that never finishes its headers is disconnected once the header
// timeout passes, while a complete request on the same server is answered.
func TestSlowHeadersAreCut(t *testing.T) {
	if readHeaderTimeout <= 0 {
		t.Fatalf("readHeaderTimeout = %v, want a positive bound", readHeaderTimeout)
	}
	const timeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok") //nolint:errcheck
	}), timeout)
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at Close
	defer srv.Close()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET / HTTP/1.1\r\nHost: dcsd\r\nX-Slow: 1\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	slow.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	_, err = io.Copy(io.Discard, slow)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server kept a connection with unfinished headers open")
	}
	if took := time.Since(start); took < timeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", took, timeout)
	}

	fast, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if _, err := io.WriteString(fast, "GET / HTTP/1.1\r\nHost: dcsd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(fast), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 16))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), "ok") {
		t.Fatalf("complete request: %d %q", resp.StatusCode, body)
	}
}
