package main

import (
	"bufio"
	"io"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/transport"
	"repro/internal/vision"
)

// TestMain runs ffserve itself when the test binary is re-executed with
// FFSERVE_TEST_MAIN set, so a test can signal a real ffserve process.
func TestMain(m *testing.M) {
	if os.Getenv("FFSERVE_TEST_MAIN") != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// The flag and configuration errors exit before the controller opens
// or anything listens.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
		says string // on stderr
	}{
		{"help", []string{"-h"}, 0, "-listen"},
		{"unknown flag", []string{"-no-such-flag"}, 2, "no-such-flag"},
		{"bad slo spec", []string{"-slo", "extract_p99_ms"}, 1, "bad -slo spec"},
		{"zero interval", []string{"-interval", "0"}, 2, "-interval"},
		{"negative interval", []string{"-interval", "-1s"}, 2, "-interval"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != tc.want {
				t.Fatalf("exit %d, want %d: %s", code, tc.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.says) {
				t.Fatalf("stderr does not mention %q: %s", tc.says, stderr.String())
			}
		})
	}
}

// A fetch's bits that do not divide evenly over its frames must still
// all reach the datacenter archive's accounting.
func TestContextArchiverKeepsEveryBit(t *testing.T) {
	c := newContextArchiver(t.TempDir(), 0)
	defer c.Close()
	frames := []*vision.Image{vision.NewImage(8, 4), vision.NewImage(8, 4), vision.NewImage(8, 4)}
	if err := c.Save("edge-1", "cam0", frames, 10); err != nil {
		t.Fatal(err)
	}
	if got := c.stores["edge-1/cam0"].Stats().ArchivedBits; got != 10 {
		t.Fatalf("archived %d bits, want 10", got)
	}
}

// SIGTERM — what kill, docker stop and systemd send — stops ffserve as
// SIGINT does: Controller.Close writes the final snapshot, so the next
// open of the state dir replays no records.
func TestSIGTERMWritesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-listen", "127.0.0.1:0", "-state-dir", dir, "-interval", "1h")
	cmd.Env = append(os.Environ(), "FFSERVE_TEST_MAIN=1")
	stderr, logw := io.Pipe()
	defer logw.Close()
	cmd.Stderr = logw
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := bufio.NewScanner(stderr)
	listening := regexp.MustCompile(`msg="ffserve: listening" addr=(\S+)`)
	var addr string
	for addr == "" && lines.Scan() {
		if m := listening.FindStringSubmatch(lines.Text()); m != nil {
			addr = m[1]
		}
	}
	if addr == "" {
		t.Fatalf("ffserve never logged its listen address: %v", lines.Err())
	}
	go func() { // drain the rest, so ffserve never blocks logging
		for lines.Scan() {
		}
	}()

	// A fresh node's hello logs one record before its welcome.
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := transport.WriteHeader(conn, transport.Version2); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteRecord(conn, transport.KindHello, fleet.Hello{Node: "edge-1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := transport.ReadHeader(conn); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := transport.ReadRecord(conn); err != nil || kind != transport.KindWelcome {
		t.Fatalf("answer to hello: kind %d, %v; want welcome", kind, err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("ffserve after SIGTERM: %v, want a clean exit", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ffserve still running 30s after SIGTERM")
	}

	ctrl, stats, err := fleet.OpenController(fleet.ControllerConfig{Shards: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if stats.Nodes != 1 || stats.RecordsReplayed != 0 {
		t.Fatalf("reopen after SIGTERM: %d node(s), %d record(s) replayed; want 1 node and 0 records (a final snapshot)", stats.Nodes, stats.RecordsReplayed)
	}
}
