package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// repoRoot walks up from the working directory to the directory whose
// go.mod declares module drainnas — the checkout the benchmark measures.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module drainnas\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod of module drainnas above the working directory; run from the repository checkout")
		}
		dir = parent
	}
}

// buildDir is where the binaries, the Go build cache and the per-run
// scratch directories live; it is in .gitignore.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildBinaries compiles cmd/servd and cmd/router from the checkout into
// <build>/bin. The Go build cache makes every call after the first a
// relink check of well under a second.
func buildBinaries(root string) (binDir string, err error) {
	binDir = filepath.Join(buildDir(root), "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/servd", "./cmd/router")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building servd and router: %v\n%s", err, out)
	}
	return binDir, nil
}

// drainTimeout is how long a child may take to exit 0 after SIGTERM; it is
// also passed to the child as -drain.
const drainTimeout = 10 * time.Second

// child is one running servd or router process.
type child struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port parsed from the child's "listening on" log line

	logDone chan struct{} // closed when the stderr reader has hit EOF
	mu      sync.Mutex
	tail    []string // last few log lines, for error reports
}

// startChild launches bin with args plus "-addr 127.0.0.1:0" and waits for
// the "<name>: listening on <addr>" line the binaries log once bound.
func startChild(name, bin string, args ...string) (*child, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-drain", drainTimeout.String()}, args...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, logDone: make(chan struct{})}
	live.add(c)
	addrCh := make(chan string, 1)
	go c.readLog(stderr, addrCh)

	select {
	case c.addr = <-addrCh:
		return c, nil
	case <-c.logDone:
		_ = cmd.Wait()
		live.remove(c)
		return nil, fmt.Errorf("bench: %s exited before listening:\n%s", name, c.logTail())
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-c.logDone
		_ = cmd.Wait()
		live.remove(c)
		return nil, fmt.Errorf("bench: %s did not report a listen address within 30s:\n%s", name, c.logTail())
	}
}

// readLog drains the child's stderr (access and audit lines arrive per
// request, so an unread pipe would block the child), keeps a short tail
// and reports the listen address once.
func (c *child) readLog(r io.Reader, addrCh chan<- string) {
	defer close(c.logDone)
	marker := c.name + ": listening on "
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		c.mu.Lock()
		if len(c.tail) == 20 {
			c.tail = c.tail[1:]
		}
		c.tail = append(c.tail, line)
		c.mu.Unlock()
		if i := strings.Index(line, marker); i >= 0 && addrCh != nil {
			addr := line[i+len(marker):]
			if sp := strings.IndexByte(addr, ' '); sp >= 0 {
				addr = addr[:sp]
			}
			addrCh <- addr
			addrCh = nil
		}
	}
}

func (c *child) logTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

func (c *child) url() string { return "http://" + c.addr }

// stop sends SIGTERM and requires a clean exit (status 0) within the drain
// timeout. Anything else — a non-zero exit, a kill after the timeout — is
// an error, which fails the run: a benchmark that leaks or breaks its
// children has not measured the system it claims to.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("bench: signalling %s: %w", c.name, err)
	}
	timer := time.AfterFunc(drainTimeout+2*time.Second, func() { _ = c.cmd.Process.Kill() })
	<-c.logDone // Wait closes the pipe; all output must be read first
	err := c.cmd.Wait()
	live.remove(c)
	if !timer.Stop() {
		return fmt.Errorf("bench: %s did not exit within %s of SIGTERM and was killed:\n%s", c.name, drainTimeout, c.logTail())
	}
	if err != nil {
		return fmt.Errorf("bench: %s exited uncleanly: %v\n%s", c.name, err, c.logTail())
	}
	return nil
}

// live is the set of children that have been started and not yet waited
// for, so that a benchmark told to stop can take them down with it.
var live = &liveSet{m: map[*child]struct{}{}}

type liveSet struct {
	mu sync.Mutex
	m  map[*child]struct{}
}

func (l *liveSet) add(c *child) {
	l.mu.Lock()
	l.m[c] = struct{}{}
	l.mu.Unlock()
}

func (l *liveSet) remove(c *child) {
	l.mu.Lock()
	delete(l.m, c)
	l.mu.Unlock()
}

// killAll kills every live child and waits for each to be gone. It is for
// the signal handler only: the run is lost, nothing is reported.
func (l *liveSet) killAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for c := range l.m {
		_ = c.cmd.Process.Kill()
		_, _ = c.cmd.Process.Wait()
	}
}

// procUsage is a reading of /proc/<pid>: CPU time consumed so far and the
// peak resident set.
type procUsage struct {
	cpu       time.Duration
	peakRSSMB float64
}

// clockTick is USER_HZ; Linux has fixed it at 100 for every architecture Go
// supports, and /proc/<pid>/stat reports utime/stime in it.
const clockTick = 10 * time.Millisecond

func (c *child) usage() (procUsage, error) {
	pid := strconv.Itoa(c.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procUsage{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ")".
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return procUsage{}, fmt.Errorf("bench: short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procUsage{}, fmt.Errorf("bench: unparseable /proc/%s/stat", pid)
	}
	u := procUsage{cpu: time.Duration(utime+stime) * clockTick}

	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return procUsage{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return procUsage{}, fmt.Errorf("bench: unparseable VmHWM in /proc/%s/status", pid)
			}
			u.peakRSSMB = kb / 1024
		}
	}
	return u, nil
}

// stopAll stops children in order (front tier first, so the replica drains
// with nothing in flight) and joins their errors.
func stopAll(children ...*child) error {
	var errs []error
	for _, c := range children {
		if c != nil {
			errs = append(errs, c.stop())
		}
	}
	return errors.Join(errs...)
}

// getJSON fetches url and decodes a 200 answer into out.
func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("bench: GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
