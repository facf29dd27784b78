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

	"phish/internal/clearinghouse"
)

// Integration tests that build and drive the real binaries — phish in its
// launcher, jobq, jobmanager and worker roles, and phishbench — over
// localhost sockets, the way an operator would deploy them across
// machines. Skipped under -short.

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// TestMain removes the binaries buildBinaries compiled once the tests are
// done with them.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// buildBinaries compiles the cmd/ tree once per test process.
func buildBinaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "phish-bin-*")
		if buildErr != nil {
			return
		}
		for _, cmd := range []string{"phish", "phishbench"} {
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
	jobq := exec.Command(filepath.Join(bin, "phish"), "jobq", "-addr", jobqAddr)
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
	// workers, from their own binary, for whatever lands in the pool.
	var managers []*exec.Cmd
	mgrOuts := make([]*lockedBuffer, 0, 2) // one buffer per process, read
	// by the test while exec's copier goroutine writes it
	for ws := 1; ws <= 2; ws++ {
		mgr := exec.Command(filepath.Join(bin, "phish"), "jobmanager",
			"-jobq", jobqAddr,
			"-ws", fmt.Sprint(ws),
			"-policy", "always",
			"-busy-poll", "200ms", "-idle-retry", "150ms", "-work-poll", "100ms")
		buf := &lockedBuffer{}
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

	// 4. The answer alone would pass with the submitter's local worker
	// doing all of it, so each manager must have started a worker that
	// joined. How many tasks a remote worker ran depends on timing.
	deadline := time.Now().Add(10 * time.Second)
	for i, b := range mgrOuts {
		for !strings.Contains(b.String(), "joining job") {
			if time.Now().After(deadline) {
				t.Fatalf("manager %d never started a worker that joined:\n%s", i+1, b.String())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// 5. A manager's death takes its workers with it: each gets the SIGTERM
	// of an owner's return and leaves, in a fraction of a second. Without
	// the signal, a worker that joined after the job ended outlives its
	// manager by about 10 s, trying to register with a clearinghouse that
	// is gone.
	if _, err := os.Stat("/proc/self/cmdline"); err != nil {
		return // no /proc to look for survivors in
	}
	for _, m := range managers {
		_ = m.Process.Kill()
		_, _ = m.Process.Wait()
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		left := workerProcs(t, bin)
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker processes %v outlived their managers by 5s", left)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// workerProcs lists the pids of live `phish worker` processes run from the
// binary in bin, read from /proc/*/cmdline.
func workerProcs(t *testing.T, bin string) []string {
	t.Helper()
	self := filepath.Join(bin, "phish")
	if real, err := filepath.EvalSymlinks(self); err == nil {
		self = real
	}
	paths, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	var pids []string
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // exited meanwhile
		}
		argv := strings.Split(string(b), "\x00")
		if len(argv) < 2 || argv[1] != "worker" {
			continue
		}
		if exe, err := filepath.EvalSymlinks(argv[0]); err == nil && exe == self {
			pids = append(pids, filepath.Base(filepath.Dir(p)))
		}
	}
	return pids
}

// lockedBuffer is a bytes.Buffer a process writes while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
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
	if !strings.Contains(string(out), "recovered job") {
		t.Errorf("restore path not taken:\n%s", out)
	}
}

// TestBinariesStandaloneClearinghouseRecovers runs the job's clearinghouse
// alone (phish -workers 0) with a journal, feeds it one phish worker,
// kills it mid-job and runs the same command again: the second process
// resumes the job from the journal, the worker computes straight through
// the outage, and the job ends with the exact answer.
func TestBinariesStandaloneClearinghouseRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds binaries; skipped with -short")
	}
	bin := buildBinaries(t)
	jnl := filepath.Join(t.TempDir(), "job9.jnl")
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chAddr := pc.LocalAddr().String()
	pc.Close()
	args := []string{"-workers", "0", "-ch-addr", chAddr, "-job", "9", "-journal", jnl,
		"-update", "500ms", "-timeout", "120s", "pfold", "19", "6"}

	first := exec.Command(filepath.Join(bin, "phish"), args...)
	var firstOut bytes.Buffer
	first.Stdout, first.Stderr = &firstOut, &firstOut
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = first.Process.Kill()
		_, _ = first.Process.Wait()
	}()
	worker := exec.Command(filepath.Join(bin, "phish"), "worker", "-ch", chAddr, "-job", "9",
		"-program", "pfold", "-worker", "42", "-addr", "127.0.0.1:0", "-hb", "100ms")
	workerOut := &lockedBuffer{} // read while the worker runs
	worker.Stdout, worker.Stderr = workerOut, workerOut
	if err := worker.Start(); err != nil {
		t.Fatal(err)
	}
	workerDone := make(chan error, 1)
	go func() { workerDone <- worker.Wait() }()
	defer worker.Process.Kill() //nolint:errcheck // gone already when the test passes

	// Pull the plug once the journal holds the worker's registration.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if rec, err := clearinghouse.ReplayJournal(jnl); err == nil && len(rec.Members) > 0 {
			break
		}
		if time.Now().After(deadline) {
			_ = first.Process.Kill()
			_, _ = first.Process.Wait()
			t.Fatalf("first run: worker never registered; clearinghouse output:\n%s", firstOut.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = first.Process.Kill()
	_, _ = first.Process.Wait()

	out, err := exec.Command(filepath.Join(bin, "phish"), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("restarted clearinghouse: %v\n%s\nworker output:\n%s", err, out, workerOut.String())
	}
	if !strings.Contains(string(out), "recovered job 9") {
		t.Errorf("recovery path not taken:\n%s", out)
	}
	if !strings.Contains(string(out), "foldings = 124658732") {
		t.Errorf("recovered job produced wrong output:\n%s", out)
	}
	select {
	case <-workerDone:
	case <-time.After(10 * time.Second):
		_ = worker.Process.Kill()
		<-workerDone
		t.Fatalf("worker outlived the restarted clearinghouse's job:\n%s", workerOut.String())
	}
	if !strings.Contains(workerOut.String(), "left (job-done)") {
		t.Errorf("worker did not leave on the job's end:\n%s", workerOut.String())
	}
}
