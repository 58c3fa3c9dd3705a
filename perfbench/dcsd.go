package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// dcsdProc is one running dcsd child. Every child is registered with the
// reaper until stopped, so an interrupt or an error exit kills it and
// removes its data directory.
type dcsdProc struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:port
	dataDir string        // always created; passed as -data only when asked for
	done    chan struct{} // closed once the process has been reaped
	stderr  *tailBuffer
	once    sync.Once
}

// reaper tracks live children for the interrupt path.
type reaper struct {
	mu    sync.Mutex
	procs map[*dcsdProc]bool
}

var live = &reaper{procs: map[*dcsdProc]bool{}}

func (r *reaper) add(p *dcsdProc) {
	r.mu.Lock()
	r.procs[p] = true
	r.mu.Unlock()
}

func (r *reaper) remove(p *dcsdProc) {
	r.mu.Lock()
	delete(r.procs, p)
	r.mu.Unlock()
}

// stopAll kills and reaps every live child and removes its data directory.
func (r *reaper) stopAll() {
	r.mu.Lock()
	ps := make([]*dcsdProc, 0, len(r.procs))
	for p := range r.procs {
		ps = append(ps, p)
	}
	r.mu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// tailBuffer keeps the last few KiB of a child's stderr for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8<<10 {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-(8<<10):]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDcsd execs bin with flags on a fresh loopback port. With withData it
// also passes a fresh data directory under tmpRoot. The caller must stop
// the returned process.
func startDcsd(bin, tmpRoot string, flags []string, withData bool) (*dcsdProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	dir, err := os.MkdirTemp(tmpRoot, fmt.Sprintf("dcsd-%d-", os.Getpid()))
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}
	if withData {
		args = append(args, "-data", dir)
	}
	args = append(args, flags...)
	p := &dcsdProc{
		base:    fmt.Sprintf("http://127.0.0.1:%d", port),
		dataDir: dir,
		done:    make(chan struct{}),
		stderr:  &tailBuffer{},
	}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout = p.stderr
	p.cmd.Stderr = p.stderr
	// Pdeathsig kills the child even if this process is killed outright.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	live.add(p)
	if err := p.cmd.Start(); err != nil {
		live.remove(p)
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting dcsd: %w", err)
	}
	go func() {
		p.cmd.Wait() //nolint:errcheck // a killed child always reports an error
		close(p.done)
	}()
	return p, nil
}

// waitHealthy polls /healthz until it answers 200.
func (p *dcsdProc) waitHealthy(ctx context.Context, hc *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("dcsd exited before answering /healthz: %s", p.stderr.String())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dcsd did not answer /healthz within %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMB reads the child's VmHWM (peak resident set) in MiB.
func (p *dcsdProc) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop kills the child, waits until it has been reaped and removes its
// data directory. Safe to call more than once.
func (p *dcsdProc) stop() {
	p.once.Do(func() {
		p.cmd.Process.Kill() //nolint:errcheck // already exited is fine
		<-p.done
		os.RemoveAll(p.dataDir)
		live.remove(p)
	})
}

// removeStaleDirs deletes data directories left by an earlier benchmark
// process that no longer runs (one killed with SIGKILL cannot clean up).
func removeStaleDirs(tmpRoot string) {
	ents, err := os.ReadDir(tmpRoot)
	if err != nil {
		return
	}
	for _, e := range ents {
		var pid int
		if _, err := fmt.Sscanf(e.Name(), "dcsd-%d-", &pid); err != nil || pid == os.Getpid() {
			continue
		}
		if err := syscall.Kill(pid, 0); errors.Is(err, syscall.ESRCH) {
			os.RemoveAll(filepath.Join(tmpRoot, e.Name()))
		}
	}
}
