package dserve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/elfx"
	"negativaml/internal/mlframework"
)

// writeIngestTree writes a small runnable install into dir, plus a data
// file, a script, a versioned alias, and a symlinked data file.
func writeIngestTree(t *testing.T, dir string) {
	t.Helper()
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{"README.txt": "readme", "LICENSE.txt": "license", "bin/run.sh": "#!/bin/sh\n"}
	for name, body := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for link, target := range map[string]string{"libtorch_cuda.so.1": "libtorch_cuda.so", "doc.txt": "README.txt"} {
		if err := os.Symlink(target, filepath.Join(dir, link)); err != nil {
			t.Fatal(err)
		}
	}
}

var ingestReuseReq = JobRequest{
	IngestDir: "tree",
	Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}},
	MaxSteps:  1,
}

// runIngestJob submits the tree and waits for the terminal snapshot and,
// for a done job, its result.
func runIngestJob(t *testing.T, s *Service) (*Job, *BatchResult) {
	t.Helper()
	sub, err := s.Submit(ingestReuseReq)
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.WaitJob(sub.ID, waitTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobDone {
		return job, nil
	}
	res, err := s.ResultOf(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	return job, res
}

// reportJSON renders a batch's per-library reports without their sparse
// images (compared through the reports' digests and sizes).
func reportJSON(t *testing.T, res *BatchResult) string {
	t.Helper()
	var b strings.Builder
	for _, r := range res.Libs {
		rc := *r
		rc.Sparse = nil
		blob, err := json.Marshal(rc)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(blob)
	}
	return b.String()
}

func counter(s *Service, name string) int64 { return s.Counters.Snapshot()[name] }

// TestIngestReuseUnchangedTree pins the reuse path: a resubmitted unchanged
// tree gets the very *Install the first submit parsed, counted as a reuse
// rather than a parsed tree.
func TestIngestReuseUnchangedTree(t *testing.T) {
	root := t.TempDir()
	writeIngestTree(t, filepath.Join(root, "tree"))
	s := NewService(Config{IngestRoot: root, Workers: 2, MaxSteps: 1})
	defer s.Close()

	first, err := s.ingestInstall("tree")
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.ingestInstall("./tree/")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("unchanged resubmit parsed a new install")
	}
	if got := counter(s, "ingests.trees"); got != 1 {
		t.Errorf("ingests.trees = %d, want 1", got)
	}
	if got := counter(s, "ingests.reused"); got != 1 {
		t.Errorf("ingests.reused = %d, want 1", got)
	}

	// Jobs take the same path: both batches run on the shared install.
	runIngestJob(t, s)
	if job, _ := runIngestJob(t, s); job.State != JobDone {
		t.Fatalf("resubmitted job: %s", job.Err)
	}
	if got := counter(s, "ingests.reused"); got != 3 {
		t.Errorf("ingests.reused = %d after two jobs, want 3", got)
	}
}

// TestIngestReuseRevalidatesByContent pins the invalidation side: each edit
// forces a re-ingest, and the re-ingested batch (or its rejection) equals a
// fresh node's — the cached walk can never leak into a changed tree.
func TestIngestReuseRevalidatesByContent(t *testing.T) {
	cases := []struct {
		name string
		edit func(t *testing.T, dir string)
	}{
		{"same-size byte flip with mtime restored", func(t *testing.T, dir string) {
			p := filepath.Join(dir, "libtorch_cpu.so")
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			lib, err := elfx.Parse("libtorch_cpu.so", data)
			if err != nil {
				t.Fatal(err)
			}
			data[lib.Funcs[0].Range.Start] ^= 0xff // a code byte: the library still parses
			if err := os.WriteFile(p, data, fi.Mode()); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(p, fi.ModTime(), fi.ModTime()); err != nil {
				t.Fatal(err)
			}
		}},
		{"added file", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "bin", "new.sh"), []byte("#!/bin/sh\n"), 0o755); err != nil {
				t.Fatal(err)
			}
		}},
		{"removed file", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "LICENSE.txt")); err != nil {
				t.Fatal(err)
			}
		}},
		{"renamed file", func(t *testing.T, dir string) {
			if err := os.Rename(filepath.Join(dir, "README.txt"), filepath.Join(dir, "README.md")); err != nil {
				t.Fatal(err)
			}
			if err := os.Symlink("README.md", filepath.Join(dir, "README.txt")); err != nil {
				t.Fatal(err)
			}
		}},
		{"retargeted symlink", func(t *testing.T, dir string) {
			link := filepath.Join(dir, "libtorch_cuda.so.1")
			if err := os.Remove(link); err != nil {
				t.Fatal(err)
			}
			if err := os.Symlink("libc10_cuda.so", link); err != nil {
				t.Fatal(err)
			}
		}},
		{"new empty directory past MaxDepth", func(t *testing.T, dir string) {
			deep := dir
			for i := 0; i <= 64; i++ {
				deep = filepath.Join(deep, fmt.Sprint(i%10))
			}
			if err := os.MkdirAll(deep, 0o755); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "tree")
			writeIngestTree(t, dir)
			cfg := Config{IngestRoot: root, Workers: 2, MaxSteps: 1}
			s := NewService(cfg)
			defer s.Close()
			runIngestJob(t, s)
			if _, res := runIngestJob(t, s); res == nil || counter(s, "ingests.reused") != 1 {
				t.Fatalf("unchanged resubmit was not reused (reused=%d)", counter(s, "ingests.reused"))
			}

			tc.edit(t, dir)
			job, got := runIngestJob(t, s)
			if trees, reused := counter(s, "ingests.trees"), counter(s, "ingests.reused"); reused != 1 {
				t.Fatalf("edited tree reused its cached install (trees=%d reused=%d)", trees, reused)
			}

			fresh := NewService(cfg)
			defer fresh.Close()
			wantJob, want := runIngestJob(t, fresh)
			if job.State != wantJob.State || job.Err != wantJob.Err {
				t.Fatalf("edited tree: state %s err %q; fresh node: %s %q", job.State, job.Err, wantJob.State, wantJob.Err)
			}
			if want == nil {
				return
			}
			if got.InstallFP != want.InstallFP {
				t.Errorf("fingerprint %.12s, fresh node %.12s", got.InstallFP, want.InstallFP)
			}
			if reportJSON(t, got) != reportJSON(t, want) {
				t.Error("library reports differ from a fresh node's")
			}
		})
	}
}

// TestIngestReuseConcurrent drives one tree from many goroutines while a
// writer rewrites one of its data files: every submit must get a complete
// install of the tree (race-clean under -race), and the table ends with one
// entry that a later unchanged resubmit reuses.
func TestIngestReuseConcurrent(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "tree")
	writeIngestTree(t, dir)
	s := NewService(Config{IngestRoot: root, Workers: 2, MaxSteps: 1})
	defer s.Close()
	first, err := s.ingestInstall("tree")
	if err != nil {
		t.Fatal(err)
	}
	wantFP := InstallFingerprint(first)

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tmp := filepath.Join(dir, ".README.tmp")
			os.WriteFile(tmp, []byte(fmt.Sprint("readme ", i%2)), 0o644)
			os.Rename(tmp, filepath.Join(dir, "README.txt"))
			time.Sleep(time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				in, err := s.ingestInstall("tree")
				if err != nil {
					errs <- err
					return
				}
				if fp := InstallFingerprint(in); fp != wantFP {
					errs <- fmt.Errorf("install fingerprint %.12s, want %.12s", fp, wantFP)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	os.Remove(filepath.Join(dir, ".README.tmp"))

	last, err := s.ingestInstall("tree")
	if err != nil {
		t.Fatal(err)
	}
	reused := counter(s, "ingests.reused")
	if again, _ := s.ingestInstall("tree"); again != last || counter(s, "ingests.reused") != reused+1 {
		t.Error("settled tree is not reused")
	}
	s.mu.Lock()
	n := len(s.installs)
	s.mu.Unlock()
	if n != 1 {
		t.Errorf("install table holds %d entries for one tree", n)
	}
}

// TestIngestReuseEviction pins the shared bound: ingested trees live in the
// MaxInstalls-bounded install table, an evicted tree re-ingests, and a
// directory that fails to ingest takes no slot.
func TestIngestReuseEviction(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"a", "b", "c"} {
		writeIngestTree(t, filepath.Join(root, name))
	}
	s := NewService(Config{IngestRoot: root, Workers: 2, MaxInstalls: 2})
	defer s.Close()
	ingestAll := func(names ...string) {
		t.Helper()
		for _, name := range names {
			if _, err := s.ingestInstall(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingestAll("a", "b", "c")
	if got := counter(s, "installs.evicted"); got != 1 {
		t.Errorf("installs.evicted = %d, want 1", got)
	}
	ingestAll("c") // still cached
	if got := counter(s, "ingests.reused"); got != 1 {
		t.Errorf("ingests.reused = %d, want 1", got)
	}
	ingestAll("a") // evicted: parsed again, evicting b
	if trees, evicted := counter(s, "ingests.trees"), counter(s, "installs.evicted"); trees != 4 || evicted != 2 {
		t.Errorf("ingests.trees = %d, installs.evicted = %d; want 4, 2", trees, evicted)
	}
	if _, err := s.ingestInstall("missing"); err == nil {
		t.Fatal("missing tree ingested")
	}
	s.mu.Lock()
	n, order := len(s.installs), len(s.installOrder)
	s.mu.Unlock()
	if n != 2 || order != 2 || counter(s, "installs.evicted") != 2 {
		t.Errorf("table holds %d entries (%d ordered) after a failed ingest, want 2", n, order)
	}
	ingestAll("a", "c") // both survived the failure
	if got := counter(s, "ingests.reused"); got != 3 {
		t.Errorf("ingests.reused = %d, want 3", got)
	}
}

// TestJobWallIncludesPersist pins job.wall's end point: a store commit
// delayed by the crash-injection hook lands inside it, and job.persist
// records that persistence on its own.
func TestJobWallIncludesPersist(t *testing.T) {
	const delay = 40 * time.Millisecond
	st, err := castore.Open(t.TempDir(), castore.Options{BeforeRename: func(kind, key string) error {
		time.Sleep(delay)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := NewService(Config{Workers: 2, MaxSteps: 1, Store: st})
	defer s.Close()
	sub, err := s.Submit(JobRequest{
		Framework: "pytorch", TailLibs: 1, MaxSteps: 1, SkipVerify: true,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if job, err := s.WaitJob(sub.ID, waitTimeout); err != nil || job.State != JobDone {
		t.Fatalf("job: %v %+v", err, job)
	}
	// The terminal state is published before job.wall is observed.
	deadline := time.Now().Add(waitTimeout)
	for s.Timings.Total("job.wall") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	wall, persist := s.Timings.Summary("job.wall"), s.Timings.Summary("job.persist")
	if persist.N != 1 || persist.P50 < float64(delay/time.Millisecond) {
		t.Fatalf("job.persist = %+v, want one sample of at least %v", persist, delay)
	}
	if wall.P50 < persist.P50 {
		t.Errorf("job.wall p50 %.1f ms < job.persist p50 %.1f ms", wall.P50, persist.P50)
	}
}
