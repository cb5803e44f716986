package ingest

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// writeMixedTree lays out a runnable install plus one file of every other
// kind the walker classifies, so each edit below meets them all.
func writeMixedTree(t *testing.T, dir string) {
	t.Helper()
	writeFlat(t, dir)
	write(t, dir, "bin/run.sh", []byte("#!/bin/sh\nexec python -m torch\n"))
	write(t, dir, "README.txt", []byte("readme"))
	write(t, dir, "LICENSE.txt", []byte("license"))
	write(t, dir, "libtrunc.so", []byte("\x7fELF\x02\x01\x01"))
	write(t, dir, "nested/a/b/notes.txt", []byte("notes"))
	for link, target := range map[string]string{
		"libtorch_cuda.so.1": "libtorch_cuda.so",
		"doc.txt":            "README.txt",
		"ghost.so":           "gone.so",
		"nested/up":          "..",
	} {
		if err := os.Symlink(target, filepath.Join(dir, link)); err != nil {
			t.Fatal(err)
		}
	}
}

// sameResult reports whether two walks of a tree agree on everything Tree
// derives from it.
func sameResult(a, b *Result) bool {
	return reflect.DeepEqual(a.Files, b.Files) && reflect.DeepEqual(a.Closure, b.Closure) &&
		reflect.DeepEqual(a.Roots, b.Roots) && reflect.DeepEqual(a.Unresolved, b.Unresolved) &&
		reflect.DeepEqual(a.Manifest, b.Manifest)
}

// TestUnchangedMatchesTree pins Unchanged to Tree's verdict: after each edit
// it reports true exactly when a fresh Tree would return an equal Result,
// and when Tree would reject the tree it reports false with Tree's error.
// Edits that keep every byte but move metadata (mtimes) stay unchanged;
// edits that keep metadata but move bytes do not.
func TestUnchangedMatchesTree(t *testing.T) {
	failOpen(t, "libsecret.so") // an unreadable file, unreadable on both walks
	opt := Options{MaxDepth: 8}
	cases := []struct {
		name string
		edit func(t *testing.T, dir string)
		want bool
		// wantErr, when set, is the rejection both Tree and Unchanged report.
		wantErr string
	}{
		{name: "untouched", edit: func(*testing.T, string) {}, want: true},
		{name: "mtime moved, bytes kept", want: true, edit: func(t *testing.T, dir string) {
			later := time.Now().Add(time.Hour)
			for _, f := range []string{"libtorch_cpu.so", "README.txt"} {
				if err := os.Chtimes(filepath.Join(dir, f), later, later); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "same-size byte flip with mtime restored", edit: func(t *testing.T, dir string) {
			flipByte(t, filepath.Join(dir, "libtorch_cpu.so"))
		}},
		{name: "added file", edit: func(t *testing.T, dir string) {
			write(t, dir, "nested/a/new.txt", []byte("new"))
		}},
		{name: "removed file", edit: func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "LICENSE.txt")); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "renamed file", edit: func(t *testing.T, dir string) {
			if err := os.Rename(filepath.Join(dir, "README.txt"), filepath.Join(dir, "README.md")); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "renamed directory", edit: func(t *testing.T, dir string) {
			if err := os.Rename(filepath.Join(dir, "nested", "a"), filepath.Join(dir, "nested", "z")); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "retargeted symlink", edit: func(t *testing.T, dir string) {
			relink(t, filepath.Join(dir, "doc.txt"), "LICENSE.txt")
		}},
		{name: "dangling symlink starts resolving", edit: func(t *testing.T, dir string) {
			write(t, dir, "gone.so", []byte("data"))
		}},
		{name: "readable file turns unreadable", edit: func(t *testing.T, dir string) {
			failOpen(t, "README.txt")
		}},
		{name: "retargeted directory symlink is never followed", want: true, edit: func(t *testing.T, dir string) {
			relink(t, filepath.Join(dir, "nested", "up"), "a")
		}},
		{name: "new empty directory within bounds adds no file", want: true, edit: func(t *testing.T, dir string) {
			if err := os.MkdirAll(filepath.Join(dir, "nested", "empty"), 0o755); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "new empty directory past MaxDepth", wantErr: "nesting exceeds 8", edit: func(t *testing.T, dir string) {
			if err := os.MkdirAll(filepath.Join(dir, "nested", "1", "2", "3", "4", "5", "6", "7", "8"), 0o755); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "root removed", wantErr: "no such file", edit: func(t *testing.T, dir string) {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeMixedTree(t, dir)
			write(t, dir, "libsecret.so", []byte("secret"))
			prev, err := Tree(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := prev.Unchanged(); !ok || err != nil {
				t.Fatalf("freshly walked tree: Unchanged = %v, %v", ok, err)
			}
			tc.edit(t, dir)

			ok, err := prev.Unchanged()
			fresh, treeErr := Tree(dir, opt)
			if tc.wantErr != "" {
				if treeErr == nil || !strings.Contains(treeErr.Error(), tc.wantErr) {
					t.Fatalf("Tree error %v, want one containing %q", treeErr, tc.wantErr)
				}
				if ok || err == nil || err.Error() != treeErr.Error() {
					t.Fatalf("Unchanged = %v, %v; want false with Tree's error %q", ok, err, treeErr)
				}
				return
			}
			if treeErr != nil {
				t.Fatalf("Tree: %v", treeErr)
			}
			if err != nil {
				t.Fatalf("Unchanged: %v", err)
			}
			if ok != tc.want {
				t.Fatalf("Unchanged = %v, want %v", ok, tc.want)
			}
			if same := sameResult(prev, fresh); ok != same {
				t.Fatalf("Unchanged = %v but a fresh Tree's result equal = %v", ok, same)
			}
			if ok, err := fresh.Unchanged(); !ok || err != nil {
				t.Fatalf("re-walked tree: Unchanged = %v, %v", ok, err)
			}
		})
	}
}

// TestUnchangedFileBound pins MaxFiles on the verifying walk: a file added
// past the bound reads as changed, and Tree then rejects the tree.
func TestUnchangedFileBound(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{"a.txt", "b.txt"} {
		write(t, dir, f, []byte(f))
	}
	prev, err := Tree(dir, Options{MaxFiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	write(t, dir, "0.txt", []byte("0"))
	if ok, _ := prev.Unchanged(); ok {
		t.Fatal("tree past its file bound reads as unchanged")
	}
	if _, err := Tree(dir, Options{MaxFiles: 2}); err == nil || !strings.Contains(err.Error(), "exceeds 2 files") {
		t.Fatalf("Tree error %v, want the file bound", err)
	}
}

// TestUnchangedEmptyTree pins the degenerate walk: a tree with no files
// stays unchanged until one appears.
func TestUnchangedEmptyTree(t *testing.T) {
	dir := t.TempDir()
	prev, err := Tree(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := prev.Unchanged(); !ok || err != nil {
		t.Fatalf("empty tree: Unchanged = %v, %v", ok, err)
	}
	write(t, dir, "a.txt", []byte("a"))
	if ok, err := prev.Unchanged(); ok || err != nil {
		t.Fatalf("empty tree gained a file: Unchanged = %v, %v", ok, err)
	}
}

// TestUnchangedStreams pins the verifying walk's memory: files stream
// through one pooled buffer, so a walk allocates far less than the bytes it
// hashes (reading the tree into memory would allocate all of them).
func TestUnchangedStreams(t *testing.T) {
	dir := t.TempDir()
	writeFlat(t, dir)
	res, err := Tree(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var treeBytes int64
	for _, f := range res.Files {
		treeBytes += f.Size
	}
	res.Unchanged() // warm the buffer pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ok, err := res.Unchanged()
	runtime.ReadMemStats(&after)
	if !ok || err != nil {
		t.Fatalf("Unchanged = %v, %v", ok, err)
	}
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > treeBytes/32 {
		t.Errorf("verifying walk allocated %d bytes for a %d-byte tree", got, treeBytes)
	}
}

// flipByte inverts one byte inside the file's first function body and
// restores its size and mtime, so only the content tells the edit apart.
func flipByte(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(data) / 2
	if res, err := Tree(filepath.Dir(path), Options{}); err == nil {
		if lib := res.Libs[filepath.Base(path)]; lib != nil && len(lib.Funcs) > 0 {
			off = int(lib.Funcs[0].Range.Start)
		}
	}
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, fi.Mode()); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		t.Fatal(err)
	}
	if now, err := os.Stat(path); err != nil || now.Size() != fi.Size() || !now.ModTime().Equal(fi.ModTime()) {
		t.Fatalf("flip changed metadata: %v", err)
	}
}

// relink points the symlink at path to a new target.
func relink(t *testing.T, path, target string) {
	t.Helper()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, path); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTree and BenchmarkUnchanged compare a full ingest of a generated
// install with the verifying re-walk that lets a resubmit reuse it.
func BenchmarkTree(b *testing.B) {
	dir := b.TempDir()
	writeFlat(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Tree(dir, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnchanged(b *testing.B) {
	dir := b.TempDir()
	writeFlat(b, dir)
	res, err := Tree(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := res.Unchanged(); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}
