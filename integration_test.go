package phish_test

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// Integration tests that build and drive the real binaries — PhishJobQ,
// PhishJobManager, worker, launcher — over localhost sockets, the way an
// operator would deploy them across machines. Skipped under -short.

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildBinaries compiles the cmd/ tree once per test process.
func buildBinaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "phish-bin-*")
		if buildErr != nil {
			return
		}
		for _, cmd := range []string{"phish", "phishjobq", "phishjobmanager", "phishworker", "clearinghouse", "phishbench"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, cmd), "./cmd/"+cmd).CombinedOutput()
			if err != nil {
				buildErr = fmt.Errorf("build %s: %v\n%s", cmd, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

// freePort reserves a localhost TCP port.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestBinariesLauncherLocalJob(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds binaries; skipped with -short")
	}
	bin := buildBinaries(t)
	// The paper's UX: one command runs the job (clearinghouse + first
	// worker start locally).
	out, err := exec.Command(filepath.Join(bin, "phish"),
		"-workers", "2", "-timeout", "60s", "fib", "25").CombinedOutput()
	if err != nil {
		t.Fatalf("phish fib 25: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "fib = 75025") {
		t.Errorf("output missing result:\n%s", out)
	}
}

func TestBinariesFullMacroStack(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds binaries; skipped with -short")
	}
	bin := buildBinaries(t)

	// 1. PhishJobQ.
	jobqAddr := freePort(t)
	jobq := exec.Command(filepath.Join(bin, "phishjobq"), "-addr", jobqAddr)
	var jobqOut bytes.Buffer
	jobq.Stdout, jobq.Stderr = &jobqOut, &jobqOut
	if err := jobq.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = jobq.Process.Kill()
		_, _ = jobq.Process.Wait()
	}()
	waitListening(t, jobqAddr)

	// 2. Two always-idle workstations run PhishJobManagers that start
	// phishworker processes for whatever lands in the pool.
	var managers []*exec.Cmd
	mgrOuts := make([]*bytes.Buffer, 0, 2) // one buffer per process: exec's
	// copier goroutines must not share one
	for ws := 1; ws <= 2; ws++ {
		mgr := exec.Command(filepath.Join(bin, "phishjobmanager"),
			"-jobq", jobqAddr,
			"-ws", fmt.Sprint(ws),
			"-policy", "always",
			"-worker-bin", filepath.Join(bin, "phishworker"),
			"-busy-poll", "200ms", "-idle-retry", "150ms", "-work-poll", "100ms")
		buf := &bytes.Buffer{}
		mgrOuts = append(mgrOuts, buf)
		mgr.Stdout, mgr.Stderr = buf, buf
		if err := mgr.Start(); err != nil {
			t.Fatal(err)
		}
		managers = append(managers, mgr)
	}
	defer func() {
		for _, m := range managers {
			_ = m.Process.Kill()
			_, _ = m.Process.Wait()
		}
	}()

	// 3. A user launches nqueens(10); idle workstations pile on.
	out, err := exec.Command(filepath.Join(bin, "phish"),
		"-jobq", jobqAddr, "-workers", "1", "-timeout", "120s",
		"nqueens", "10").CombinedOutput()
	if err != nil {
		var mgrLogs string
		for i, b := range mgrOuts {
			mgrLogs += fmt.Sprintf("-- manager %d --\n%s", i+1, b.String())
		}
		t.Fatalf("phish nqueens: %v\n%s\n%s", err, out, mgrLogs)
	}
	if !strings.Contains(string(out), "solutions = 724") {
		t.Errorf("wrong or missing result:\n%s", out)
	}
}

func TestBinariesBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds binaries; skipped with -short")
	}
	bin := buildBinaries(t)
	out, err := exec.Command(filepath.Join(bin, "phishbench"),
		"-exp", "fig5", "-pfold-n", "12", "-ps", "1,2").CombinedOutput()
	if err != nil {
		t.Fatalf("phishbench: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Figure 5") || !strings.Contains(string(out), "speedup") {
		t.Errorf("bench output malformed:\n%s", out)
	}
}

// waitListening polls until a TCP endpoint accepts connections.
func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("nothing listening on %s", addr)
}

func TestBinariesCheckpointRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds binaries; skipped with -short")
	}
	bin := buildBinaries(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "job.ckpt")

	// A job long enough to checkpoint mid-flight.
	first := exec.Command(filepath.Join(bin, "phish"),
		"-workers", "2",
		"-checkpoint", ckpt, "-checkpoint-every", "400ms",
		"-timeout", "120s",
		"pfold", "19", "6")
	var firstOut bytes.Buffer
	first.Stdout, first.Stderr = &firstOut, &firstOut
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for a checkpoint to land, then pull the plug.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if fi, err := os.Stat(ckpt); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			_ = first.Process.Kill()
			_, _ = first.Process.Wait()
			t.Fatalf("no checkpoint appeared; output:\n%s", firstOut.String())
		}
		// The job may simply have finished before the first checkpoint.
		if first.ProcessState != nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = first.Process.Kill() // power cut: no graceful anything
	_, _ = first.Process.Wait()
	if _, err := os.Stat(ckpt); err != nil {
		t.Skipf("job finished before the first checkpoint (%v); nothing to restore", err)
	}

	// Resurrect from the file on "new hardware".
	out, err := exec.Command(filepath.Join(bin, "phish"),
		"-workers", "2", "-timeout", "120s",
		"-restore", ckpt).CombinedOutput()
	if err != nil {
		t.Fatalf("restore: %v\n%s", err, out)
	}
	// pfold(19) has 124,658,732 foldings (self-avoiding walks of 18 steps):
	// the task tree of the pfold(16, 3) this test ran while a folding cost
	// 200 ns, with leaves heavy enough to outlast the first checkpoint.
	if !strings.Contains(string(out), "foldings = 124658732") {
		t.Errorf("restored job produced wrong output:\n%s", out)
	}
	if !strings.Contains(string(out), "resuming job") {
		t.Errorf("restore path not taken:\n%s", out)
	}
}
