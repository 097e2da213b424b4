package main

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"cbvr"
	"cbvr/internal/cvj"
	"cbvr/internal/server"
	"cbvr/internal/synthvid"
)

// stdoutOf runs one command and returns what it printed.
func stdoutOf(t *testing.T, run func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	saved := os.Stdout
	os.Stdout = w
	err = run()
	os.Stdout = saved
	w.Close()
	out := <-printed
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRemoteRoundTrip runs ingest, query and reindex once with -server
// against a cbvr-server handler and once with -db against a second store
// loaded the same way: the remote path decodes the server's JSON into the
// engine's own result types, so both must print the same lines.
func TestRemoteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	v := synthvid.Generate(synthvid.Nature, synthvid.Config{Width: 96, Height: 72, Frames: 10, Shots: 3, Seed: 11})
	container, err := cvj.EncodeBytes(v.Frames, v.FPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	clip := filepath.Join(dir, "clip.cvj")
	if err := os.WriteFile(clip, container, 0o644); err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := v.Frames[4].EncodeJPEG(&frame, 0); err != nil {
		t.Fatal(err)
	}
	query := filepath.Join(dir, "frame.jpg")
	if err := os.WriteFile(query, frame.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	eng, err := cbvr.Open(filepath.Join(dir, "remote.db"), cbvr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(server.New(eng, server.Options{}))
	defer ts.Close()
	remote := []string{"-server", ts.URL}
	local := []string{"-db", filepath.Join(dir, "local.db")}

	ctx := context.Background()
	for _, c := range []struct {
		run  func(context.Context, []string) error
		args []string
	}{
		{cmdIngest, []string{"-file", clip, "-name", "clip"}},
		{cmdIngest, []string{"-file", clip, "-name", "again"}},
		{cmdQuery, []string{"-image", query, "-k", "4"}},
		{cmdReindex, []string{"-id", "2"}},
		{cmdReindex, nil},
	} {
		got := stdoutOf(t, func() error { return c.run(ctx, append(remote[:2:2], c.args...)) })
		want := stdoutOf(t, func() error { return c.run(ctx, append(local[:2:2], c.args...)) })
		if got != want {
			t.Errorf("%v: remote printed\n%s\nlocal printed\n%s", c.args, got, want)
		}
		if got == "" {
			t.Errorf("%v printed nothing", c.args)
		}
	}
}
