package ingest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"negativaml/internal/mlframework"
)

// Single-file edits the differential tests apply to a tree.
const (
	opFlip     byte = iota // XOR the byte at off with b
	opTruncate             // cut the file to off bytes
	opExtend               // insert b at off
	numOps
)

// mutate returns data with one edit applied; off is reduced into range.
func mutate(data []byte, op byte, off int, b byte) []byte {
	out := append([]byte(nil), data...)
	switch op % numOps {
	case opFlip:
		if len(out) > 0 {
			out[off%len(out)] ^= b
		}
	case opTruncate:
		if len(out) > 0 {
			out = out[:off%len(out)]
		}
	case opExtend:
		off %= len(out) + 1
		out = append(out[:off], append([]byte{b}, data[off:]...)...)
	}
	return out
}

// rewrite replaces a file's contents and restores its mtime, so only the
// bytes (and, for a length change, the size) tell the edit apart.
func rewrite(tb testing.TB, path string, data []byte) {
	tb.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, data, fi.Mode()); err != nil {
		tb.Fatal(err)
	}
	if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
		tb.Fatal(err)
	}
}

// agreesWithTree checks Unchanged against its oracle: it must report true
// exactly when a fresh Tree of the directory succeeds with equal Files.
func agreesWithTree(tb testing.TB, prev *Result, what string) {
	tb.Helper()
	ok, err := prev.Unchanged()
	if err != nil {
		tb.Fatalf("%s: Unchanged: %v", what, err)
	}
	fresh, treeErr := Tree(prev.Dir, prev.opt)
	if want := treeErr == nil && reflect.DeepEqual(prev.Files, fresh.Files); ok != want {
		tb.Fatalf("%s: Unchanged = %v, but a fresh Tree agrees = %v (Tree error: %v)", what, ok, want, treeErr)
	}
}

// regularFiles lists the walked paths that are regular files, not symlinks:
// the files an edit can change without touching another path.
func regularFiles(tb testing.TB, res *Result) []string {
	tb.Helper()
	var out []string
	for _, f := range res.Files {
		fi, err := os.Lstat(filepath.Join(res.Dir, filepath.FromSlash(f.Path)))
		if err == nil && fi.Mode().IsRegular() {
			out = append(out, f.Path)
		}
	}
	return out
}

// TestUnchangedDifferential applies about 200 seeded single-file edits to
// a WriteTo tree with every file class beside it: byte flips (at random
// offsets and at both ends, mtime restored), one-byte truncations and
// extensions, edits to an alias copy alone, same-size edits of install.json,
// and edits to data and script files. After each edit Unchanged must agree
// with a fresh Tree; after the edit is undone the tree must read unchanged
// again.
func TestUnchangedDifferential(t *testing.T) {
	dir := t.TempDir()
	writeMixedTree(t, dir)
	cpu, err := os.ReadFile(filepath.Join(dir, "libtorch_cpu.so"))
	if err != nil {
		t.Fatal(err)
	}
	write(t, dir, "libtorch_cpu.so.2", cpu) // an alias copy, not a link
	prev, err := Tree(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if alias := report(t, prev, "libtorch_cpu.so.2"); alias.AliasOf != "libtorch_cpu.so" {
		t.Fatalf("copy is not an alias: %+v", alias)
	}
	if rep := report(t, prev, "bin/run.sh"); rep.Class != ClassScript {
		t.Fatalf("bin/run.sh classified %s", rep.Class)
	}

	type edit struct {
		path string
		op   byte
		off  int
		b    byte
	}
	rng := rand.New(rand.NewSource(14))
	size := func(path string) int { return int(report(t, prev, path).Size) }
	randFlip := func(path string) edit {
		return edit{path, opFlip, rng.Intn(size(path)), byte(1 + rng.Intn(255))}
	}
	var edits []edit
	files := regularFiles(t, prev)
	for _, f := range files {
		n := size(f)
		edits = append(edits,
			edit{f, opFlip, 0, 0xff},
			edit{f, opFlip, n - 1, 0xff},
			edit{f, opTruncate, n - 1, 0},
			edit{f, opExtend, n, byte(rng.Intn(256))})
	}
	for i := 0; i < 10; i++ {
		edits = append(edits,
			randFlip("libtorch_cpu.so.2"),
			randFlip(mlframework.ManifestName),
			randFlip("README.txt"),
			randFlip("bin/run.sh"))
	}
	for len(edits) < 200 {
		edits = append(edits, randFlip(files[rng.Intn(len(files))]))
	}

	for _, e := range edits {
		what := fmt.Sprintf("%s op %d at %d (%#x)", e.path, e.op, e.off, e.b)
		path := filepath.Join(dir, filepath.FromSlash(e.path))
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rewrite(t, path, mutate(orig, e.op, e.off, e.b))
		agreesWithTree(t, prev, what)
		rewrite(t, path, orig)
		if ok, err := prev.Unchanged(); !ok || err != nil {
			t.Fatalf("%s undone: Unchanged = %v, %v", what, ok, err)
		}
	}
}

// TestUnchangedOpensEachFileOnce pins the verifying walk's I/O: every
// walked file is opened exactly once, whether it is compared with held
// bytes or hashed, and nothing else is opened.
func TestUnchangedOpensEachFileOnce(t *testing.T) {
	dir := t.TempDir()
	writeMixedTree(t, dir)
	prev, err := Tree(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opens := map[string]int{}
	orig := openFile
	openFile = func(name string) (*os.File, error) {
		opens[name]++
		return orig(name)
	}
	t.Cleanup(func() { openFile = orig })
	if ok, err := prev.Unchanged(); !ok || err != nil {
		t.Fatalf("Unchanged = %v, %v", ok, err)
	}
	want := map[string]int{}
	for _, f := range prev.Files {
		if f.Class != ClassDanglingSymlink && f.Class != ClassSymlinkDir {
			want[filepath.Join(dir, filepath.FromSlash(f.Path))] = 1
		}
	}
	if !reflect.DeepEqual(opens, want) {
		t.Fatalf("opens %v, want each walked file once: %v", opens, want)
	}
}

// fuzzTree is a small tree with one file of each class Unchanged treats
// differently: the manifest and shared objects (compared with held bytes,
// an alias copy among them), and a corrupt ELF, a script and a data file
// (hashed). Files are listed in walk order.
func fuzzTree(tb testing.TB) []treeFile {
	liba := buildLib(tb, "liba.so")
	return []treeFile{
		{mlframework.ManifestName, []byte(`{"framework":"PyTorch","lib_names":["liba.so","libb.so"]}`)},
		{"liba.so", liba},
		{"liba.so.1", liba},
		{"libb.so", buildLib(tb, "libb.so", "liba.so")},
		{"libbad.so", []byte("\x7fELF\x02\x01\x01\x00truncated")},
		{"notes.txt", []byte("notes")},
		{"run.sh", []byte("#!/bin/sh\nexec true\n")},
	}
}

type treeFile struct {
	name string
	data []byte
}

// FuzzUnchanged is the differential fuzz target for Unchanged: one edit —
// a flip, truncation or extension of one file at one offset — is applied
// to a small tree, and Unchanged must agree with a fresh Tree. A zero flip
// byte leaves the tree as it was, which must read unchanged. The corpus
// under testdata/fuzz seeds every file with each operation.
func FuzzUnchanged(f *testing.F) {
	files := fuzzTree(f)
	f.Fuzz(func(t *testing.T, file uint8, off uint32, op uint8, b byte) {
		dir := t.TempDir()
		for _, tf := range files {
			write(t, dir, tf.name, tf.data)
		}
		prev, err := Tree(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep := report(t, prev, "liba.so.1"); rep.AliasOf != "liba.so" {
			t.Fatalf("copy is not an alias: %+v", rep)
		}
		tf := files[int(file)%len(files)]
		rewrite(t, filepath.Join(dir, tf.name), mutate(tf.data, op, int(off), b))
		agreesWithTree(t, prev, fmt.Sprintf("%s op %d at %d (%#x)", tf.name, op%numOps, off, b))
	})
}
