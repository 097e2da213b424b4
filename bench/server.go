package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanups are run once on every exit path: normal return, a failed gate,
// a signal and the harness's own timeout. They kill server children and
// remove temp dirs.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanups.mu.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.mu.Unlock()
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// tempDir makes a scratch directory that is removed at exit.
func tempDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp("", "cbvr-bench-"+prefix+"-")
	if err != nil {
		return "", err
	}
	onExit(func() { os.RemoveAll(dir) })
	return dir, nil
}

// buildServer compiles cmd/cbvr-server from the repository that holds
// this benchmark into a temp dir. run.sh builds it once per checkout and
// passes -server instead; this is the path `go run` and the tests take.
func buildServer(repoRoot string) (string, error) {
	dir, err := tempDir("bin")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "cbvr-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cbvr-server")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cbvr-server in %s: %v\n%s", repoRoot, err, out)
	}
	return bin, nil
}

// server is one cbvr-server child process.
type server struct {
	cmd  *exec.Cmd
	addr string

	mu     sync.Mutex
	log    bytes.Buffer  // everything the child wrote to stderr
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited
}

// startServer spawns the binary on 127.0.0.1:0 with default flags (WAL
// fsync on) and waits for its "listening on" line.
func startServer(bin, db string) (*server, error) {
	cmd := exec.Command(bin, "-db", db, "-addr", "127.0.0.1:0", "-drain", "5s")
	// The child must not outlive a harness that is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	onExit(func() { s.stop(syscall.SIGKILL) })

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.log.WriteString(line + "\n")
			s.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addr <- strings.Fields(line[i+len("listening on "):])[0]:
				default:
				}
			}
		}
		s.err = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.addr = <-addr:
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("server exited before listening: %v\n%s", s.err, s.logTail())
	case <-time.After(20 * time.Second):
		s.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("server did not report its address within 20s\n%s", s.logTail())
	}
}

func (s *server) logTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.log.Bytes()
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// alive reports an error if the child has exited although nobody stopped it.
func (s *server) alive() error {
	select {
	case <-s.exited:
		return fmt.Errorf("server exited early: %v\n%s", s.err, s.logTail())
	default:
		return nil
	}
}

// stop sends sig and waits for the child to end. After SIGTERM the exit
// must be clean; a child that ignores the signal for 20s is killed.
func (s *server) stop(sig syscall.Signal) error {
	select {
	case <-s.exited:
		return nil
	default:
	}
	if err := s.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("server ignored %v for 20s\n%s", sig, s.logTail())
	}
	if sig == syscall.SIGTERM && s.err != nil {
		return fmt.Errorf("server exit after SIGTERM: %v\n%s", s.err, s.logTail())
	}
	return nil
}

// peakRSSMB reads VmHWM, the high-water mark of a process's resident set.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
