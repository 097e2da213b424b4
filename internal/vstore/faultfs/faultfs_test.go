package faultfs

import (
	"errors"
	"fmt"
	"slices"
	"syscall"
	"testing"
	"time"

	"cbvr/internal/vstore"
)

func open(t *testing.T, fs *FS, name string) vstore.File {
	t.Helper()
	f, err := fs.OpenFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func write(t *testing.T, f vstore.File, p string, off int64) {
	t.Helper()
	if _, err := f.WriteAt([]byte(p), off); err != nil {
		t.Fatal(err)
	}
}

// current reads a file's whole current image through a fresh handle.
func current(t *testing.T, fs *FS, name string) string {
	t.Helper()
	f := open(t, fs, name)
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	return string(buf)
}

// failNext arms the injector to answer act for the next op of kind.
func failNext(fs *FS, kind OpKind, act Action) {
	fired := false
	fs.SetInjector(func(op Op) Action {
		if !fired && op.Kind == kind {
			fired = true
			return act
		}
		return ActNone
	})
}

// TestInjectorSeesEveryOp: each op reaches the injector once, in order,
// with its kind, the file's base name, its offset and length and a
// consecutive index; Size is bookkeeping, not an op. Ops counts them.
func TestInjectorSeesEveryOp(t *testing.T) {
	fs := New()
	var got []Op
	fs.SetInjector(func(op Op) Action {
		got = append(got, op)
		return ActNone
	})
	f := open(t, fs, "/data/x.db")
	write(t, f, "hello", 3)
	if _, err := f.ReadAt(make([]byte, 2), 4); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(6); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("/data/x.db"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Size(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Index: 0, Kind: OpOpen, Name: "x.db"},
		{Index: 1, Kind: OpWrite, Name: "x.db", Off: 3, Len: 5},
		{Index: 2, Kind: OpRead, Name: "x.db", Off: 4, Len: 2},
		{Index: 3, Kind: OpSync, Name: "x.db"},
		{Index: 4, Kind: OpTruncate, Name: "x.db", Off: 6},
		{Index: 5, Kind: OpSyncDir, Name: "x.db"},
		{Index: 6, Kind: OpClose, Name: "x.db"},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("injector saw\n%+v\nwant\n%+v", got, want)
	}
	if n := fs.Ops(); n != len(want) {
		t.Fatalf("Ops() = %d, want %d", n, len(want))
	}
}

// TestFailedOpLeavesFileUntouched: an op the injector fails with ActErr
// or ActENOSPC returns that error and changes neither the current nor the
// durable image.
func TestFailedOpLeavesFileUntouched(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kind    OpKind
		act     Action
		run     func(vstore.File) error
		wantErr error
	}{
		{"write error", OpWrite, ActErr, func(f vstore.File) error { _, err := f.WriteAt([]byte("XXXX"), 0); return err }, ErrInjected},
		{"write ENOSPC", OpWrite, ActENOSPC, func(f vstore.File) error { _, err := f.WriteAt([]byte("XXXX"), 10); return err }, syscall.ENOSPC},
		{"truncate error", OpTruncate, ActErr, func(f vstore.File) error { return f.Truncate(2) }, ErrInjected},
		{"sync error", OpSync, ActErr, func(f vstore.File) error { return f.Sync() }, ErrInjected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := New()
			f := open(t, fs, "x.db")
			write(t, f, "durable", 0)
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			write(t, f, "+more", 7)
			failNext(fs, tc.kind, tc.act)
			if err := tc.run(f); !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			fs.SetInjector(nil)
			if got := current(t, fs, "x.db"); got != "durable+more" {
				t.Fatalf("current image %q, want %q", got, "durable+more")
			}
			if got := fs.SyncedSize("x.db"); got != 7 {
				t.Fatalf("SyncedSize = %d, want 7", got)
			}
		})
	}
}

// TestShortWritePersistsStrictPrefix: ActShortWrite lands the first half
// of the buffer, reports that count with ENOSPC, and syncs nothing.
func TestShortWritePersistsStrictPrefix(t *testing.T) {
	fs := New()
	f := open(t, fs, "x.db")
	failNext(fs, OpWrite, ActShortWrite)
	p := []byte("0123456789")
	n, err := f.WriteAt(p, 2)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if n <= 0 || n >= len(p) {
		t.Fatalf("short write reported %d of %d bytes, want a strict non-empty prefix", n, len(p))
	}
	fs.SetInjector(nil)
	if got, want := current(t, fs, "x.db"), "\x00\x00"+string(p[:n]); got != want {
		t.Fatalf("current image %q, want %q", got, want)
	}
	if got := fs.SyncedSize("x.db"); got != 0 {
		t.Fatalf("SyncedSize = %d, want 0", got)
	}
}

// TestTornWriteFlushesPendingThenCutsPower: ActTornWrite is the
// adversarial write-back extreme — every pending write of a file with a
// durable entry counts as written, only a prefix of the torn write
// itself lands, the write reports nothing written, and power is cut.
func TestTornWriteFlushesPendingThenCutsPower(t *testing.T) {
	fs := New()
	f := open(t, fs, "x.db")
	if err := fs.SyncDir("x.db"); err != nil {
		t.Fatal(err)
	}
	write(t, f, "AAAA", 0) // pending: never synced
	failNext(fs, OpWrite, ActTornWrite)
	n, err := f.WriteAt([]byte("BBBBBBBB"), 4)
	if n != 0 || !errors.Is(err, ErrPowerLost) {
		t.Fatalf("torn write = (%d, %v), want (0, ErrPowerLost)", n, err)
	}
	fs.SetInjector(nil)
	if _, err := f.Size(); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("handle survived the torn write: %v", err)
	}
	if got := current(t, fs, "x.db"); got != "AAAABBBB" {
		t.Fatalf("after torn write: %q, want pending AAAA + half the torn write", got)
	}
	if got := fs.SyncedSize("x.db"); got != 8 {
		t.Fatalf("SyncedSize = %d, want 8", got)
	}
}

// TestPowerCut: CutPower and an injected ActPowerCut drop every unsynced
// byte and every file whose entry was never made durable by SyncDir, keep
// the synced images, and leave every open handle stale. The op that
// carries ActPowerCut does not run.
func TestPowerCut(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(*FS, vstore.File) error
	}{
		{"CutPower", func(fs *FS, _ vstore.File) error { fs.CutPower(); return nil }},
		{"ActPowerCut", func(fs *FS, kept vstore.File) error {
			failNext(fs, OpWrite, ActPowerCut)
			defer fs.SetInjector(nil)
			if _, err := kept.WriteAt([]byte("late"), 0); !errors.Is(err, ErrPowerLost) {
				return fmt.Errorf("write carrying the cut: %v, want ErrPowerLost", err)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := New()
			kept := open(t, fs, "kept.db")
			write(t, kept, "synced", 0)
			if err := kept.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := fs.SyncDir("kept.db"); err != nil {
				t.Fatal(err)
			}
			write(t, kept, "-lost", 6)
			gone := open(t, fs, "gone.db") // data synced, entry never
			write(t, gone, "orphan", 0)
			if err := gone.Sync(); err != nil {
				t.Fatal(err)
			}

			if err := tc.cut(fs, kept); err != nil {
				t.Fatal(err)
			}

			for _, h := range []vstore.File{kept, gone} {
				if _, err := h.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrPowerLost) {
					t.Errorf("ReadAt on a pre-cut handle: %v", err)
				}
				if _, err := h.WriteAt([]byte("x"), 0); !errors.Is(err, ErrPowerLost) {
					t.Errorf("WriteAt on a pre-cut handle: %v", err)
				}
				if err := h.Sync(); !errors.Is(err, ErrPowerLost) {
					t.Errorf("Sync on a pre-cut handle: %v", err)
				}
				if err := h.Truncate(0); !errors.Is(err, ErrPowerLost) {
					t.Errorf("Truncate on a pre-cut handle: %v", err)
				}
				if err := h.Close(); !errors.Is(err, ErrPowerLost) {
					t.Errorf("Close on a pre-cut handle: %v", err)
				}
			}
			if got := fs.SyncedSize("kept.db"); got != 6 {
				t.Errorf("SyncedSize(kept.db) = %d, want 6", got)
			}
			if got := fs.SyncedSize("gone.db"); got != -1 {
				t.Errorf("gone.db survived the cut: SyncedSize = %d", got)
			}
			if got := current(t, fs, "kept.db"); got != "synced" {
				t.Errorf("kept.db after the cut: %q, want %q", got, "synced")
			}
			if got := current(t, fs, "gone.db"); got != "" {
				t.Errorf("gone.db after the cut: %q, want a fresh empty file", got)
			}
		})
	}
}

// TestLatencySleepsOutsideLock: a slow op sleeps with the FS mutex
// released, so an op on another file is not queued behind it — the model
// is a slow disk, not a frozen one.
func TestLatencySleepsOutsideLock(t *testing.T) {
	const delay = 500 * time.Millisecond
	fs := New()
	slow := open(t, fs, "slow.db")
	fast := open(t, fs, "fast.db")
	write(t, slow, "s", 0)
	sleeping := make(chan struct{})
	fs.SetLatency(func(op Op) time.Duration {
		if op.Name == "slow.db" && op.Kind == OpRead {
			close(sleeping)
			return delay
		}
		return 0
	})
	done := make(chan time.Duration, 1)
	go func() {
		start := time.Now()
		slow.ReadAt(make([]byte, 1), 0)
		done <- time.Since(start)
	}()
	<-sleeping

	start := time.Now()
	write(t, fast, "f", 0)
	if elapsed := time.Since(start); elapsed >= delay/2 {
		t.Fatalf("second op took %v behind a %v sleep", elapsed, delay)
	}
	select {
	case <-done:
		t.Fatal("slow op finished before the second op returned")
	default:
	}
	if d := <-done; d < delay {
		t.Fatalf("slow op took %v, want >= %v", d, delay)
	}
	if got := current(t, fs, "fast.db"); got != "f" {
		t.Fatalf("fast.db = %q", got)
	}
}
