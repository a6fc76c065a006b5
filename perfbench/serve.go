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

// buildServe compiles cmd/serve from the repository root into out. It
// runs once per benchmark command, before anything is timed.
func buildServe(ctx context.Context, root, out string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/serve")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/serve: %v\n%s", err, b)
	}
	return nil
}

// serverProcs is every server's GOMAXPROCS. With one, a server and the
// load generator each have one of a two-core host's cores. With two, on
// a shared two-core host, the scale-2 reanalysis ran slower (9.6 against
// 8.3 ms at the median key's 10th percentile) and five runs spread 15%
// where one thread spread 3%: a parallel step waits for its slowest
// core, and both cores are less often free of the neighbours than one.
const serverProcs = 1

// node is one running cmd/serve child process.
type node struct {
	id   string
	url  string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed when the process has exited
	err  error         // exit status, valid after done
}

// fleet owns every server process the benchmark starts. stopAll is
// safe to call any number of times and from any goroutine; it returns
// once every child has exited.
type fleet struct {
	bin    string
	logDir string

	mu    sync.Mutex
	nodes []*node
	seq   int
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the server binds it, so a race with another process
// is possible; startNodes retries on a failed bind.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// nodeSpec is what startNodes needs to launch one server: its flags minus
// -addr (and, for fleets, minus the peer list, which needs every
// node's port first).
type nodeSpec struct {
	id    string
	flags []string
}

// startNodes launches the given servers, each on its own free port,
// and waits until every one answers /readyz. For more than one node
// the servers are founding members of one fleet (-shard-id/-peers).
// A node that dies before it is ready (typically a lost port race) is
// retried with fresh ports, up to three attempts.
func (f *fleet) startNodes(ctx context.Context, specs []nodeSpec) ([]*node, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		nodes, err := f.tryStart(ctx, specs)
		if err == nil {
			return nodes, nil
		}
		lastErr = err
		for _, n := range nodes {
			f.stop(n)
		}
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func (f *fleet) tryStart(ctx context.Context, specs []nodeSpec) ([]*node, error) {
	ports := make([]int, len(specs))
	for i := range specs {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	var peers []string
	if len(specs) > 1 {
		for i, s := range specs {
			peers = append(peers, fmt.Sprintf("%s=http://127.0.0.1:%d", s.id, ports[i]))
		}
	}
	nodes := make([]*node, 0, len(specs))
	for i, s := range specs {
		args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(ports[i]), "-drain-timeout", "2s"}, s.flags...)
		if peers != nil {
			args = append(args, "-shard-id", s.id, "-peers", strings.Join(peers, ","))
		}
		n, err := f.spawn(s.id, ports[i], args)
		if err != nil {
			return nodes, err
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if err := waitReady(ctx, n); err != nil {
			return nodes, err
		}
	}
	return nodes, nil
}

func (f *fleet) spawn(id string, port int, args []string) (*node, error) {
	f.mu.Lock()
	f.seq++
	logPath := filepath.Join(f.logDir, fmt.Sprintf("serve-%s-%d.log", id, f.seq))
	f.mu.Unlock()
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(f.bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", serverProcs))
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// Own process group: a Ctrl-C in the terminal reaches the benchmark,
	// which then stops the servers itself, in order. Should the
	// benchmark die without that chance, the kernel kills the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", f.bin, err)
	}
	n := &node{id: id, url: fmt.Sprintf("http://127.0.0.1:%d", port), cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		n.err = cmd.Wait()
		logFile.Close()
		close(n.done)
	}()
	f.mu.Lock()
	f.nodes = append(f.nodes, n)
	f.mu.Unlock()
	return n, nil
}

// waitReady polls /readyz until it answers 200, the process exits, or
// ctx ends.
func waitReady(ctx context.Context, n *node) error {
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-n.done:
			return fmt.Errorf("server %s exited before ready (%v); log tail:\n%s", n.id, n.err, tail(n.log, 20))
		case <-ctx.Done():
			return fmt.Errorf("server %s not ready: %w", n.id, ctx.Err())
		default:
		}
		resp, err := client.Get(n.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop ends one server: SIGTERM (graceful drain), then SIGKILL if it
// is still running after the drain deadline plus slack. It returns once
// the process has exited.
func (f *fleet) stop(n *node) {
	select {
	case <-n.done:
		return
	default:
	}
	_ = n.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	select {
	case <-n.done:
		return
	case <-time.After(4 * time.Second):
	}
	_ = n.cmd.Process.Kill()
	<-n.done
}

// stopAll stops every server this fleet ever started.
func (f *fleet) stopAll() {
	f.mu.Lock()
	nodes := append([]*node(nil), f.nodes...)
	f.mu.Unlock()
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.stop(n)
		}()
	}
	wg.Wait()
}

// peakRSSMB reads VmHWM (the resident-set high-water mark) of a running
// server from /proc, in MiB.
func peakRSSMB(n *node) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// tail returns the last lines of a log file, for error messages.
func tail(path string, lines int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	all := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}
