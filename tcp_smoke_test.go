package unitp_test

import (
	"bufio"
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestTCPLoopbackSmoke is the CI smoke for the real wire transport: it
// builds the actual cmd/tpserver and cmd/tpclient binaries, confirms
// one payment over loopback TCP, then SIGTERMs the server and asserts a
// clean graceful drain — the same two-terminal flow the README
// documents, unattended.
func TestTCPLoopbackSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP loopback smoke skipped in short mode")
	}
	bin := t.TempDir()
	for _, name := range []string{"tpserver", "tpclient"} {
		build := exec.Command("go", "build", "-o", filepath.Join(bin, name), "./cmd/"+name)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}

	// Start the server on an ephemeral port and scrape the bound
	// address from its "listening" log line.
	server := exec.Command(filepath.Join(bin, "tpserver"), "-addr", "127.0.0.1:0")
	stderr, err := server.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Start(); err != nil {
		t.Fatalf("start tpserver: %v", err)
	}
	defer server.Process.Kill()

	var logMu sync.Mutex
	var serverLog bytes.Buffer
	addrCh := make(chan string, 1)
	addrRe := regexp.MustCompile(`msg=listening.*addr=(\S+)`)
	logDone := make(chan struct{}) // closed once the log is read to EOF
	go func() {
		defer close(logDone)
		scanner := bufio.NewScanner(stderr)
		for scanner.Scan() {
			line := scanner.Text()
			logMu.Lock()
			serverLog.WriteString(line + "\n")
			logMu.Unlock()
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(20 * time.Second):
		t.Fatal("tpserver never logged its listening address")
	}

	// One scripted confirmation through the real stack: enroll, submit,
	// PAL approves, outcome comes back authentic.
	client := exec.Command(filepath.Join(bin, "tpclient"),
		"-server", addr, "-decision", "y", "-tpm", "Ideal")
	out, err := client.CombinedOutput()
	if err != nil {
		t.Fatalf("tpclient: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "accepted=true") ||
		!strings.Contains(string(out), "authentic=true") {
		t.Fatalf("confirmation did not land:\n%s", out)
	}

	// Graceful drain: SIGTERM, clean exit, and the shutdown-complete
	// marker in the log. The log is read to EOF (the server's exit
	// closes it) before Wait, because Wait closes the pipe and would
	// drop the lines the reader has not reached yet.
	if err := server.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	select {
	case <-logDone:
	case <-time.After(20 * time.Second):
		t.Fatal("tpserver did not exit after SIGTERM")
	}
	logMu.Lock()
	logs := serverLog.String()
	logMu.Unlock()
	if err := server.Wait(); err != nil {
		t.Fatalf("tpserver exited dirty: %v\n%s", err, logs)
	}
	if !strings.Contains(logs, "shutdown complete") {
		t.Fatalf("no clean drain marker in server log:\n%s", logs)
	}
}
