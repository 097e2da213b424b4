package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cbvr"
	"cbvr/internal/cvj"
	"cbvr/internal/synthvid"
)

// TestShutdownDrainSIGTERM exercises the real binary end to end: build it,
// start it, commit one video over HTTP, park a second ingest mid-body on a
// raw TCP connection, then SIGTERM the process. The server must exit
// cleanly (drain expires, in-flight contexts are cancelled, staged pages
// discarded), and reopening the store must show exactly the committed
// video with no orphan key-frame rows.
func TestShutdownDrainSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process and builds a binary")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "cbvr-server")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	dbPath := filepath.Join(dir, "smoke.db")
	srv := exec.Command(bin, "-db", dbPath, "-addr", "127.0.0.1:0", "-drain", "2s")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// The binary logs its bound address once the listener is up.
	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if i := strings.Index(sc.Text(), "listening on "); i >= 0 {
			addr = strings.Fields(sc.Text()[i+len("listening on "):])[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("server never reported its listen address: %v", sc.Err())
	}
	go io.Copy(io.Discard, stderr) // keep the child's stderr drained

	// One complete ingest: this video must survive the shutdown.
	v := synthvid.Generate(synthvid.News, synthvid.Config{Width: 96, Height: 72, Frames: 8, Shots: 2, Seed: 21})
	raw, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/api/v1/ingest?name=resident", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resident ingest: %d %s", resp.StatusCode, body)
	}

	// Park a second ingest mid-body: correct Content-Length, half the
	// container sent, connection held open. The handler blocks reading the
	// next frame record.
	cut := synthvid.Generate(synthvid.Movie, synthvid.Config{Width: 96, Height: 72, Frames: 24, Shots: 4, Seed: 22})
	cutRaw, err := cvj.EncodeBytes(cut.Frames, cut.FPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /api/v1/ingest?name=cut HTTP/1.1\r\nHost: %s\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", addr, len(cutRaw))
	if _, err := conn.Write(cutRaw[:len(cutRaw)/2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond) // let the handler reach mid-decode

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(20 * time.Second):
		srv.Process.Kill()
		t.Fatal("server did not exit within 20s of SIGTERM")
	}

	// The store must reopen with exactly the committed video and no
	// key-frame rows beyond its own (nothing half-published from "cut").
	sys, err := cbvr.Open(dbPath, cbvr.Options{})
	if err != nil {
		t.Fatalf("store did not reopen after shutdown: %v", err)
	}
	defer sys.Close()
	st := sys.Store()
	vids, err := st.ListVideos(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vids) != 1 || vids[0].Name != "resident" {
		t.Fatalf("videos after shutdown = %+v, want just \"resident\"", vids)
	}
	kfs, err := st.KeyFramesOfVideo(nil, vids[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	total, err := st.CountKeyFrames(nil)
	if err != nil {
		t.Fatal(err)
	}
	if total != len(kfs) {
		t.Errorf("%d key-frame rows total but resident owns %d: orphans survived", total, len(kfs))
	}
	if len(kfs) == 0 {
		t.Error("resident video lost its key frames")
	}
}
