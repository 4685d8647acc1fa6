package fronttest

import (
	"bytes"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Build compiles cmd/<name> into dir, with the race detector when race is
// set so a smoke exercises the real admission path under -race.
func Build(t testing.TB, dir, name string, race bool) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	args := []string{"build", "-o", bin, "drainnas/cmd/" + name}
	if race {
		args = append([]string{"build", "-race"}, args[1:]...)
	}
	build := exec.Command("go", args...)
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return bin
}

// syncBuffer collects a child process's stderr for concurrent inspection.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Proc is one running servd or router.
type Proc struct {
	URL  string
	cmd  *exec.Cmd
	logs syncBuffer
}

var addrRe = regexp.MustCompile(`listening on (\S+)`)

// StartProc launches bin on an ephemeral port, waits for its logged listen
// address and then for /v1/healthz to answer 200. The process is killed
// when the test ends unless Term reaped it first.
func StartProc(t testing.TB, bin string, args ...string) *Proc {
	t.Helper()
	p := &Proc{cmd: exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)}
	p.cmd.Stderr = &p.logs
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if m := addrRe.FindStringSubmatch(p.logs.String()); m != nil {
			p.URL = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reported its listen address; log:\n%s", bin, p.Logs())
		}
	}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if resp, err := http.Get(p.URL + "/v1/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became healthy; log:\n%s", bin, p.Logs())
		}
	}
}

// Logs is everything the process has written to stderr so far.
func (p *Proc) Logs() string { return p.logs.String() }

// Term sends SIGTERM and requires the drain: exit status 0 within 30s and
// the "drained, exiting" log line.
func (p *Proc) Term(t testing.TB) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s exited non-zero after SIGTERM: %v\nlog:\n%s", p.cmd.Path, err, p.Logs())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never exited after SIGTERM; log:\n%s", p.cmd.Path, p.Logs())
	}
	if !strings.Contains(p.Logs(), "drained, exiting") {
		t.Fatalf("no drain log line; log:\n%s", p.Logs())
	}
}
