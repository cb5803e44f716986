package ingest

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"

	"negativaml/internal/bufpool"
	"negativaml/internal/elfx"
	"negativaml/internal/mlframework"
)

// Class is the classification assigned to every walked file.
type Class string

// File classes. Every file the walk encounters lands in exactly one.
const (
	// ClassSharedObject is an ELF64 shared library that parsed cleanly.
	ClassSharedObject Class = "shared-object"
	// ClassManifest is the tree root's install.json runtime-metadata file.
	ClassManifest Class = "manifest"
	// ClassScript is a shebang-prefixed text file.
	ClassScript Class = "script"
	// ClassData is anything else readable that is not ELF — including
	// non-ELF files hiding behind .so names.
	ClassData Class = "data"
	// ClassCorruptELF starts with the ELF magic but fails to parse
	// (truncated header, bad section table, hostile dynamic section, …).
	ClassCorruptELF Class = "corrupt-elf"
	// ClassUnreadable could not be read; Err holds the cause.
	ClassUnreadable Class = "unreadable"
	// ClassDanglingSymlink points at a path that does not exist.
	ClassDanglingSymlink Class = "dangling-symlink"
	// ClassSymlinkDir is a symlink to a directory. The walk records it but
	// never descends — that is what makes symlink loops terminate.
	ClassSymlinkDir Class = "symlink-dir"
)

// Walk bounds. Trees beyond these are rejected, not truncated: a silent cap
// would read as "covered everything" when it didn't.
const (
	DefaultMaxFiles = 65536
	DefaultMaxDepth = 64
)

// Options configure a Tree walk.
type Options struct {
	// Entries explicitly roots the dependency closure, by soname or file
	// name. Empty means the roots are the tree's entry libraries: every
	// shared object no other shared object names in DT_NEEDED.
	Entries []string
	// MaxFiles caps the number of walked files (default DefaultMaxFiles).
	MaxFiles int
	// MaxDepth caps directory nesting (default DefaultMaxDepth).
	MaxDepth int
}

// FileReport records one walked file's classification.
type FileReport struct {
	// Path is slash-separated and relative to the ingested root.
	Path  string `json:"path"`
	Class Class  `json:"class"`
	Size  int64  `json:"size,omitempty"`
	// Err is the classification failure for corrupt-elf and unreadable.
	Err string `json:"err,omitempty"`
	// Digest is the SHA-256 of the bytes the walk classified; zero for
	// unreadable files, dangling symlinks, and symlinked directories.
	Digest [sha256.Size]byte `json:"-"`
	// Soname, Needed, and Machine are set for shared objects.
	Soname  string   `json:"soname,omitempty"`
	Needed  []string `json:"needed,omitempty"`
	Machine uint16   `json:"machine,omitempty"`
	// AliasOf, set on a shared object, names the library whose identical
	// bytes this file repeats (a versioned symlink, a hardlink, or a copy):
	// the tree holds one library for both.
	AliasOf string `json:"alias_of,omitempty"`
	// InClosure reports whether the shared object is in the dependency
	// closure of the roots.
	InClosure bool `json:"in_closure,omitempty"`
}

// Result is a classified tree with its resolved dependency closure.
type Result struct {
	// Dir is the ingested root.
	Dir string
	// Files holds one report per walked file, in walk (sorted-path) order.
	Files []FileReport
	// Libs maps each shared object's canonical name (its file name) to the
	// parsed library. Aliases share their canonical's entry.
	Libs map[string]*elfx.Library
	// Roots are the closure roots, in closure order.
	Roots []string
	// Closure lists canonical names reachable from the roots, roots first,
	// in deterministic BFS order.
	Closure []string
	// Unresolved maps DT_NEEDED names no tree library provides to the
	// canonical names of the libraries that want them — system libraries
	// like libc live here on real trees.
	Unresolved map[string][]string
	// Manifest is the tree root's parsed install.json, nil when absent.
	Manifest *mlframework.Manifest

	opt Options // the walk's bounds, for Unchanged
	// manifest holds the root install.json bytes the walk read: Tree
	// parses them and Unchanged compares the file with them.
	manifest []byte
}

// openFile is swapped by tests to inject read failures: the suite runs as
// root, where permission bits cannot produce them.
var openFile = os.Open

// errChanged stops a verifying walk at the first difference.
var errChanged = errors.New("ingest: tree changed")

// Tree walks dir, classifies every file, and resolves the DT_NEEDED
// dependency closure. It returns an error only for defects of the tree as a
// whole (unreadable root, bound overflow, ambiguous sonames, unknown
// explicit entries); per-file anomalies are classified in Result.Files.
func Tree(dir string, opt Options) (*Result, error) {
	if opt.MaxFiles <= 0 {
		opt.MaxFiles = DefaultMaxFiles
	}
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = DefaultMaxDepth
	}
	res := &Result{
		Dir:        dir,
		Libs:       make(map[string]*elfx.Library),
		Unresolved: make(map[string][]string),
		opt:        opt,
	}
	w := &walker{opt: opt, res: res, aliases: map[string]string{}, canonPath: map[string]string{}}
	if err := w.dir(dir, "", 0); err != nil {
		return nil, err
	}
	if err := w.resolve(opt.Entries); err != nil {
		return nil, err
	}
	if res.manifest != nil {
		m, err := mlframework.ParseManifest(res.manifest)
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		res.Manifest = m
	}
	return res, nil
}

// Unchanged reports whether walking r.Dir again would classify exactly the
// files r holds: the same paths in the same order, the same symlink and
// read outcomes, and byte-identical contents. It re-walks the tree with
// Tree's walker and bounds but parses nothing, and stops at the first
// difference. Each file streams through a pooled buffer. A file whose bytes
// r already holds — a shared object (its library image, which an alias
// shares with its canonical) or the manifest — is compared with those bytes
// chunk by chunk and must match them to the last byte; any other file is
// hashed and compared with its report's SHA-256 digest. Classification is a
// function of the path and the bytes, so an unchanged walk means Tree would
// return an equal Result. Metadata may reject a file (a size that differs
// from its report ends the walk unread) but never accepts one — an edit
// that restores size and mtime is still caught by its bytes. The error is
// the one Tree would now reject the tree with (bounds, an unreadable root).
func (r *Result) Unchanged() (bool, error) {
	buf := bufpool.Get(64 << 10)
	defer bufpool.Put(buf)
	w := &walker{opt: r.opt, res: r, verify: true, hash: sha256.New(), buf: buf}
	switch err := w.dir(r.Dir, "", 0); {
	case errors.Is(err, errChanged):
		return false, nil
	case err != nil:
		return false, err
	}
	return w.seen == len(r.Files), nil
}

// held returns the bytes r already holds for a report's file: a shared
// object's library image, found under its canonical name, and the
// manifest's raw bytes. Other classes' bytes are not kept.
func (r *Result) held(p *FileReport) ([]byte, bool) {
	switch p.Class {
	case ClassSharedObject:
		canon := p.AliasOf
		if canon == "" {
			canon = path.Base(p.Path)
		}
		if lib := r.Libs[canon]; lib != nil {
			return lib.Data, true
		}
	case ClassManifest:
		return r.manifest, r.manifest != nil
	}
	return nil, false
}

type walker struct {
	opt Options
	// res is the Result being built, or, on a verifying walk, the one
	// being checked.
	res *Result
	// aliases maps every name a library answers to — file names and
	// DT_SONAME, its aliases' included — to its canonical (file) name, for
	// closure resolution.
	aliases map[string]string
	// canonPath maps each canonical name to the path of the file that
	// provides it; every other file answering to it is an alias.
	canonPath map[string]string

	// verify makes this a verifying walk (Unchanged): files are compared,
	// not classified, and each observation must match the next of
	// res.Files. seen counts the reports matched so far.
	verify bool
	seen   int
	hash   hash.Hash
	buf    []byte
	sum    [sha256.Size]byte
}

func (w *walker) dir(abs, rel string, depth int) error {
	if depth > w.opt.MaxDepth {
		return fmt.Errorf("ingest: %s: directory nesting exceeds %d levels", rel, w.opt.MaxDepth)
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		if rel == "" {
			return fmt.Errorf("ingest: %w", err)
		}
		return w.record(FileReport{Path: rel, Class: ClassUnreadable, Err: err.Error()})
	}
	for _, e := range entries { // ReadDir sorts by name: the walk is deterministic
		childAbs := filepath.Join(abs, e.Name())
		childRel := e.Name()
		if rel != "" {
			childRel = rel + "/" + e.Name()
		}
		switch {
		case e.Type()&fs.ModeSymlink != 0:
			// Resolve through the link. Directories are recorded but never
			// descended: a tree can alias its own ancestors into a loop, and
			// refusing to follow is what keeps the walk finite.
			fi, err := os.Stat(childAbs)
			switch {
			case err != nil:
				err = w.record(FileReport{Path: childRel, Class: ClassDanglingSymlink, Err: err.Error()})
			case fi.IsDir():
				err = w.record(FileReport{Path: childRel, Class: ClassSymlinkDir})
			default:
				err = w.file(childAbs, childRel, fi.Size(), depth == 0)
			}
			if err != nil {
				return err
			}
		case e.IsDir():
			if err := w.dir(childAbs, childRel, depth+1); err != nil {
				return err
			}
		default:
			var size int64
			if fi, err := e.Info(); err == nil {
				size = fi.Size()
			}
			if err := w.file(childAbs, childRel, size, depth == 0); err != nil {
				return err
			}
		}
		if w.files() > w.opt.MaxFiles {
			return fmt.Errorf("ingest: tree exceeds %d files", w.opt.MaxFiles)
		}
	}
	return nil
}

// files counts the files walked so far.
func (w *walker) files() int {
	if w.verify {
		return w.seen
	}
	return len(w.res.Files)
}

// file classifies one regular file (possibly behind a symlink). A verifying
// walk only compares it.
func (w *walker) file(abs, rel string, size int64, atRoot bool) error {
	rep := FileReport{Path: rel, Size: size}
	if w.verify {
		return w.verifyFile(abs, rep)
	}
	data, err := readFile(abs, size)
	if atRoot && filepath.Base(rel) == mlframework.ManifestName {
		if err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
		rep.Class, rep.Digest = ClassManifest, sha256.Sum256(data)
		w.res.manifest = data
		return w.record(rep)
	}
	if err != nil {
		rep.Class, rep.Err = ClassUnreadable, err.Error()
		return w.record(rep)
	}
	switch {
	case bytes.HasPrefix(data, []byte{0x7f, 'E', 'L', 'F'}):
		lib, err := elfx.Parse(filepath.Base(rel), data)
		if err != nil {
			rep.Class, rep.Err, rep.Digest = ClassCorruptELF, err.Error(), sha256.Sum256(data)
			break
		}
		rep.Class, rep.Digest = ClassSharedObject, lib.ContentDigest()
		rep.Soname, rep.Needed, rep.Machine = lib.Soname, lib.Needed, lib.Machine
		if err := w.register(lib, rel); err != nil {
			return err
		}
	case bytes.HasPrefix(data, []byte("#!")):
		rep.Class, rep.Digest = ClassScript, sha256.Sum256(data)
	default:
		rep.Class, rep.Digest = ClassData, sha256.Sum256(data)
	}
	return w.record(rep)
}

// readFile is os.ReadFile through openFile: one allocation sized from the
// walk's stat, grown only if the file grew since.
func readFile(name string, size int64) ([]byte, error) {
	f, err := openFile(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, 0, size+1) // +1: the EOF read needs no regrow
	for {
		n, err := f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return nil, err
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// verifyFile matches one file against the verifying walk's next report.
// A path or size that differs from the report rejects the file unread. A
// file whose bytes the Result holds must repeat them exactly; any other
// file is hashed for record to compare with the report's digest.
func (w *walker) verifyFile(abs string, rep FileReport) error {
	if w.seen == len(w.res.Files) {
		return errChanged
	}
	p := &w.res.Files[w.seen]
	if p.Path != rep.Path || p.Size != rep.Size {
		return errChanged
	}
	var err error
	if held, ok := w.res.held(p); ok {
		var same bool
		if same, err = w.sameBytes(abs, held); err == nil {
			if !same {
				return errChanged
			}
			rep.Digest = p.Digest
		}
	} else if err = w.hashFile(abs); err == nil {
		rep.Digest = w.sum
	}
	if err != nil {
		rep.Class, rep.Err = ClassUnreadable, err.Error()
	}
	return w.record(rep)
}

// sameBytes streams one file through the verifying walk's buffer and
// reports whether its contents are exactly held: each chunk must equal the
// matching slice of held, and the file must end where held does.
func (w *walker) sameBytes(name string, held []byte) (bool, error) {
	f, err := openFile(name)
	if err != nil {
		return false, err
	}
	defer f.Close()
	off := 0
	for {
		n, err := f.Read(w.buf)
		if n > len(held)-off || !bytes.Equal(w.buf[:n], held[off:off+n]) {
			return false, nil
		}
		off += n
		if err == io.EOF {
			return off == len(held), nil
		}
		if err != nil {
			return false, err
		}
	}
}

// hashFile streams one file through the verifying walk's hash and buffer
// into w.sum.
func (w *walker) hashFile(name string) error {
	f, err := openFile(name)
	if err != nil {
		return err
	}
	defer f.Close()
	w.hash.Reset()
	for {
		n, err := f.Read(w.buf)
		w.hash.Write(w.buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	w.hash.Sum(w.sum[:0])
	return nil
}

// record appends a classified report, or, on a verifying walk, matches the
// observation against the earlier walk's next report. A read file carries
// no class: its class and any parse error follow from the path and bytes,
// so path and digest decide (a zero digest matches no read file).
// Everything else — read failures, dangling links, symlinked directories —
// must repeat exactly.
func (w *walker) record(rep FileReport) error {
	if !w.verify {
		w.res.Files = append(w.res.Files, rep)
		return nil
	}
	if w.seen == len(w.res.Files) {
		return errChanged
	}
	p := &w.res.Files[w.seen]
	w.seen++
	same := p.Path == rep.Path && p.Size == rep.Size && p.Digest == rep.Digest
	if rep.Class != "" {
		same = same && p.Class == rep.Class && p.Err == rep.Err
	}
	if !same {
		return errChanged
	}
	return nil
}

// register indexes a parsed shared object under its file name and soname.
// A file answering to a name already taken is an alias of that library when
// its bytes are identical — a versioned symlink, a hardlink, or a copy —
// and the tree keeps one library for both, named by the file whose name is
// its soname when there is one (the name the loader and the manifest use).
// A different provider of a taken name makes every DT_NEEDED edge to it
// ambiguous, which would corrupt the closure — that rejects the tree.
func (w *walker) register(lib *elfx.Library, rel string) error {
	names := []string{lib.Name} // base file name
	if lib.Soname != "" && lib.Soname != lib.Name {
		names = append(names, lib.Soname)
	}
	canon := ""
	for _, n := range names {
		prev, taken := w.aliases[n]
		if !taken {
			continue
		}
		if (canon != "" && prev != canon) || w.res.Libs[prev].ContentDigest() != lib.ContentDigest() {
			return fmt.Errorf("ingest: %s: name %q already provided by %s with different content", rel, n, w.canonPath[prev])
		}
		canon = prev
	}
	switch {
	case canon == "":
		canon = lib.Name
		w.res.Libs[canon], w.canonPath[canon] = lib, rel
	case lib.Soname == lib.Name && canon != lib.Name:
		// The alias is the soname-named file: it takes the canonical slot.
		delete(w.res.Libs, canon)
		delete(w.canonPath, canon)
		for n, c := range w.aliases {
			if c == canon {
				w.aliases[n] = lib.Name
			}
		}
		canon = lib.Name
		w.res.Libs[canon], w.canonPath[canon] = lib, rel
	}
	for _, n := range names {
		if _, taken := w.aliases[n]; !taken {
			w.aliases[n] = canon
		}
	}
	return nil
}

// resolve computes closure roots and the reachable set over the DT_NEEDED
// graph, then back-fills AliasOf and InClosure on the file reports.
func (w *walker) resolve(entries []string) error {
	res, aliases := w.res, w.aliases
	var roots []string
	if len(entries) > 0 {
		seen := make(map[string]bool, len(entries))
		for _, e := range entries {
			canon, ok := aliases[e]
			if !ok {
				return fmt.Errorf("ingest: entry %q names no library in the tree", e)
			}
			if !seen[canon] {
				seen[canon] = true
				roots = append(roots, canon)
			}
		}
	} else {
		// Entry libraries: shared objects nothing else in the tree needs.
		// Python extension modules and a framework's core library are both
		// loader-opened roots, not DT_NEEDED targets.
		wanted := make(map[string]bool)
		for _, lib := range res.Libs {
			for _, n := range lib.Needed {
				if canon, ok := aliases[n]; ok && canon != lib.Name {
					wanted[canon] = true
				}
			}
		}
		for name := range res.Libs {
			if !wanted[name] {
				roots = append(roots, name)
			}
		}
		sort.Strings(roots)
	}

	// BFS from the roots; the visited set makes DT_NEEDED cycles terminate.
	visited := make(map[string]bool, len(res.Libs))
	queue := append([]string(nil), roots...)
	for _, r := range roots {
		visited[r] = true
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		res.Closure = append(res.Closure, name)
		for _, n := range res.Libs[name].Needed {
			canon, ok := aliases[n]
			if !ok {
				res.Unresolved[n] = append(res.Unresolved[n], name)
				continue
			}
			if !visited[canon] {
				visited[canon] = true
				queue = append(queue, canon)
			}
		}
	}
	res.Roots = roots
	for i := range res.Files {
		f := &res.Files[i]
		if f.Class != ClassSharedObject {
			continue
		}
		// A file's base name always maps to its own library's canonical.
		canon := aliases[filepath.Base(f.Path)]
		if w.canonPath[canon] != f.Path {
			f.AliasOf = canon
		}
		f.InClosure = visited[canon]
	}
	return nil
}

// Install materializes the ingested tree as a debloatable install. The tree
// must carry an install.json manifest: profiling runs workloads against the
// install, and only the manifest knows the load order, init calls, and
// family routing that make the libraries runnable. Every manifest library
// must be a classified shared object inside the dependency closure — a
// manifest naming bytes the closure cannot reach is a broken tree, not a
// smaller install.
func (r *Result) Install() (*mlframework.Install, error) {
	if r.Manifest == nil {
		return nil, fmt.Errorf("ingest: %s: no %s manifest — the tree is classifiable but not runnable", r.Dir, mlframework.ManifestName)
	}
	inClosure := make(map[string]bool, len(r.Closure))
	for _, name := range r.Closure {
		inClosure[name] = true
	}
	for _, name := range r.Manifest.LibNames {
		if _, ok := r.Libs[name]; !ok {
			return nil, fmt.Errorf("ingest: manifest names %s but the tree has no such library", name)
		}
		if !inClosure[name] {
			return nil, fmt.Errorf("ingest: manifest names %s but the dependency closure does not reach it", name)
		}
	}
	return r.Manifest.Install(r.Libs)
}

// SharedObjects counts the tree's distinct shared libraries: aliases count
// once, with the library they repeat.
func (r *Result) SharedObjects() int { return len(r.Libs) }
