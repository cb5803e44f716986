package dserve

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cubin"
	"negativaml/internal/elfx"
	"negativaml/internal/fatbin"
	"negativaml/internal/gpuarch"
	"negativaml/internal/metrics"
	"negativaml/internal/negativa"
)

// smallLib builds a tiny CPU-only library for cache tests.
func smallLib(t *testing.T, name string, funcs ...string) *elfx.Library {
	t.Helper()
	b := elfx.NewBuilder(name)
	for _, f := range funcs {
		b.AddFunction(f, 32)
	}
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := elfx.Parse(name, data)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// gpuLib builds a tiny library carrying one cubin, for arch-sensitivity
// tests.
func gpuLib(t *testing.T, name string) *elfx.Library {
	t.Helper()
	b := elfx.NewBuilder(name)
	b.AddFunction("host", 32)
	c := cubin.New(gpuarch.SM75)
	c.AddKernel(cubin.Kernel{Name: "k", Code: bytes.Repeat([]byte{0x90}, 64), Flags: cubin.FlagEntry})
	blob, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	fb := &fatbin.FatBin{}
	fb.AddRegion().AddElement(fatbin.Element{Kind: fatbin.KindCubin, Arch: gpuarch.SM75, Payload: blob})
	fbBytes, err := fb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b.SetFatbin(fbBytes)
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := elfx.Parse(name, data)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestCacheKeyContentAddressing(t *testing.T) {
	libA := smallLib(t, "liba.so", "f1", "f2")
	sameBytes := smallLib(t, "liba.so", "f1", "f2")
	renamed, err := elfx.Parse("libother.so", libA.Data)
	if err != nil {
		t.Fatal(err)
	}

	k1 := CacheKey(libA, []string{"f1"}, nil, []gpuarch.SM{gpuarch.SM75})
	if k2 := CacheKey(sameBytes, []string{"f1"}, nil, []gpuarch.SM{gpuarch.SM75}); k2 != k1 {
		t.Error("identical bytes + symbols must produce identical keys")
	}
	// The key addresses content, not the library name — tail libraries
	// shared across installs hit regardless of which install asks.
	if k3 := CacheKey(renamed, []string{"f1"}, nil, []gpuarch.SM{gpuarch.SM75}); k3 != k1 {
		t.Error("library name must not affect the key")
	}
	if k4 := CacheKey(libA, []string{"f2"}, nil, []gpuarch.SM{gpuarch.SM75}); k4 == k1 {
		t.Error("different used-function sets must produce different keys")
	}
	if k5 := CacheKey(libA, []string{"f1"}, []string{"k"}, []gpuarch.SM{gpuarch.SM75}); k5 == k1 {
		t.Error("used kernels must be part of the key")
	}
	// CPU-only libraries are arch-independent: heterogeneous-device batches
	// share their cache entries.
	if k6 := CacheKey(libA, []string{"f1"}, nil, []gpuarch.SM{gpuarch.SM80}); k6 != k1 {
		t.Error("architectures must not affect CPU-only library keys")
	}

	// GPU-carrying libraries are arch-sensitive, with canonicalized order.
	g := gpuLib(t, "libgpu.so")
	g1 := CacheKey(g, nil, []string{"k"}, []gpuarch.SM{gpuarch.SM75})
	if g2 := CacheKey(g, nil, []string{"k"}, []gpuarch.SM{gpuarch.SM80}); g2 == g1 {
		t.Error("architectures must be part of GPU-library keys")
	}
	g3 := CacheKey(g, nil, []string{"k"}, []gpuarch.SM{gpuarch.SM80, gpuarch.SM75})
	g4 := CacheKey(g, nil, []string{"k"}, []gpuarch.SM{gpuarch.SM75, gpuarch.SM80})
	if g3 != g4 {
		t.Error("architecture order must not affect the key")
	}
	// Symbols must not smear across list boundaries.
	k9 := CacheKey(libA, []string{"f1", "f2"}, nil, nil)
	k10 := CacheKey(libA, []string{"f1"}, []string{"f2"}, nil)
	if k9 == k10 {
		t.Error("function and kernel lists must be domain-separated")
	}
}

func TestCacheHitMissEviction(t *testing.T) {
	counters := metrics.NewCounterSet()
	mk := func(name string) *negativa.LibDebloat {
		return &negativa.LibDebloat{Report: &negativa.LibraryReport{Name: name}}
	}
	// Byte-bounded: room for two typical entries plus slack, so the third
	// insert forces an LRU eviction.
	unit := entrySize("k1", mk("a"))
	c := NewResultCache(2*unit+unit/2, counters)

	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty cache must miss")
	}
	c.Put("k1", mk("a"))
	c.Put("k2", mk("b"))
	if got := c.Bytes(); got != 2*unit {
		t.Fatalf("retained bytes = %d, want %d", got, 2*unit)
	}
	if ld, ok := c.Get("k1"); !ok || ld.Report.Name != "a" {
		t.Fatal("k1 must hit after Put")
	}

	// k1 was just used, so inserting k3 evicts k2 (LRU).
	c.Put("k3", mk("c"))
	if _, ok := c.Get("k2"); ok {
		t.Error("k2 should have been evicted (least recently used)")
	}
	if _, ok := c.Get("k1"); !ok {
		t.Error("k1 should have survived eviction")
	}
	if _, ok := c.Get("k3"); !ok {
		t.Error("k3 should be present")
	}

	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 entries and 1 eviction", st)
	}
	if st.Bytes != c.Bytes() || st.Bytes <= 0 {
		t.Errorf("stats bytes = %d, live = %d", st.Bytes, c.Bytes())
	}
	// hits: k1, k1, k3 = 3; misses: k1(initial), k2(after evict) = 2.
	if st.Hits != 3 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 3/2", st.Hits, st.Misses)
	}
	if counters.Get("cache.hits") != st.Hits || counters.Get("cache.misses") != st.Misses || counters.Get("cache.evictions") != st.Evictions {
		t.Errorf("counter mirror out of sync: %v vs %+v", counters.Snapshot(), st)
	}
	if counters.Get("cache.bytes") != st.Bytes {
		t.Errorf("cache.bytes gauge = %d, want %d", counters.Get("cache.bytes"), st.Bytes)
	}

	// Re-putting an existing key must not grow or evict.
	c.Put("k3", mk("c2"))
	if c.Len() != 2 {
		t.Errorf("len = %d after re-put, want 2", c.Len())
	}
	if ld, _ := c.Get("k3"); ld.Report.Name != "c2" {
		t.Error("re-put must replace the value")
	}
}

func TestCacheChargesReferencedImagesOnce(t *testing.T) {
	lib := smallLib(t, "liba.so", "f1", "f2")
	mk := func(funcs ...string) *negativa.LibDebloat {
		ld, err := negativa.LocateAndCompactLib(lib, funcs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ld
	}
	c := NewResultCache(1<<20, nil)
	c.Put("k1", mk("f1"))
	withOne := c.Bytes()
	if withOne <= lib.FileSize() {
		t.Fatalf("bytes = %d must include the referenced image (%d)", withOne, lib.FileSize())
	}
	// A second entry over the same image must not charge the image again.
	c.Put("k2", mk("f2"))
	if grew := c.Bytes() - withOne; grew >= lib.FileSize() {
		t.Fatalf("second entry grew bytes by %d — image charged twice", grew)
	}
	// Shrinking the bound below the image evicts down to one entry but the
	// survivor still pins (and charges) the image.
	small := NewResultCache(lib.FileSize()/2, nil)
	small.Put("k1", mk("f1"))
	small.Put("k2", mk("f2"))
	if small.Len() != 1 {
		t.Fatalf("len = %d, want 1 under a bound smaller than the image", small.Len())
	}
	if small.Bytes() <= lib.FileSize() {
		t.Fatalf("bytes = %d must still charge the surviving entry's image", small.Bytes())
	}
}

// TestCacheImageFollowsItsEntries pins the image Image hands out: the
// image an entry references, by digest and name, for as long as an entry
// references that very image — and never one no entry uses.
func TestCacheImageFollowsItsEntries(t *testing.T) {
	lib := smallLib(t, "liba.so", "f1", "f2")
	twin, err := elfx.Parse(lib.Name, append([]byte(nil), lib.Data...))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(l *elfx.Library, funcs ...string) *negativa.LibDebloat {
		ld, err := negativa.LocateAndCompactLib(l, funcs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ld
	}
	digest := lib.ContentDigest()
	c := NewResultCache(1<<20, nil)
	c.Put("k1", mk(lib, "f1"))
	c.Put("k2", mk(twin, "f2")) // same bytes, another parse
	if got, ok := c.Image(digest, lib.Name); !ok || got != lib {
		t.Fatalf("Image = %p, %v; want the first entry's image %p", got, ok, lib)
	}
	if _, ok := c.Image(digest, "other.so"); ok {
		t.Fatal("Image answered for another name")
	}
	// Replacing k1 drops the last entry over lib: the twin, still
	// referenced by k2, becomes the image on its next reference.
	c.Put("k1", &negativa.LibDebloat{Report: &negativa.LibraryReport{Name: "liba.so"}})
	if _, ok := c.Image(digest, lib.Name); ok {
		t.Fatal("Image still hands out an image no entry references")
	}
	c.Put("k3", mk(twin, "f1", "f2"))
	if got, ok := c.Image(digest, lib.Name); !ok || got != twin {
		t.Fatalf("Image = %p, %v; want the twin %p", got, ok, twin)
	}
}

func TestCacheRePutRechecksBound(t *testing.T) {
	mk := func(name string, kernels int) *negativa.LibDebloat {
		lr := &negativa.LibraryReport{Name: name}
		for i := 0; i < kernels; i++ {
			lr.UsedKernels = append(lr.UsedKernels, "kernel_with_a_long_name")
		}
		return &negativa.LibDebloat{Report: lr}
	}
	unit := entrySize("k1", mk("a", 0))
	c := NewResultCache(3*unit, nil)
	c.Put("k1", mk("a", 0))
	c.Put("k2", mk("b", 0))
	// Re-putting k2 with a much larger payload must evict k1, not leave
	// the cache over its bound.
	c.Put("k2", mk("b", 200))
	if c.Bytes() > 3*unit+entrySize("k2", mk("b", 200)) {
		t.Fatalf("bytes = %d way over bound after re-put", c.Bytes())
	}
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 should have been evicted by the oversized re-put")
	}
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("re-put entry must survive")
	}
}

func TestCacheOversizedEntryStillCaches(t *testing.T) {
	c := NewResultCache(1, nil) // 1 byte: every entry is oversized
	ld := &negativa.LibDebloat{Report: &negativa.LibraryReport{Name: "big"}}
	c.Put("k", ld)
	if got, ok := c.Get("k"); !ok || got != ld {
		t.Fatal("the newest entry must never be evicted by its own Put")
	}
	c.Put("k2", ld)
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (previous oversized entry evicted)", c.Len())
	}
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("k2 must be present")
	}
}

// spillableResult builds a LibDebloat carrying a sparse image, so Put
// takes the disk-spill path.
func spillableResult(t *testing.T, name string) *negativa.LibDebloat {
	t.Helper()
	lib := smallLib(t, name, "f1", "f2")
	return &negativa.LibDebloat{Report: &negativa.LibraryReport{
		Name:   name,
		Sparse: negativa.NewSparseImage(lib, nil),
	}}
}

// TestCacheFlushWaitsForInlineSpill is the barrier-blind-spot regression:
// once CloseSpill has stopped the worker, Puts spill inline, and a Flush
// issued while such a spill is mid-write must not ack until it lands.
func TestCacheFlushWaitsForInlineSpill(t *testing.T) {
	gate := make(chan struct{})
	var entered sync.Once
	enteredCh := make(chan struct{})
	st, err := castore.Open(t.TempDir(), castore.Options{
		BeforeRename: func(kind, key string) error {
			entered.Do(func() { close(enteredCh) })
			<-gate
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	c := NewResultCache(1<<20, nil)
	c.AttachStore(st)
	c.CloseSpill() // stop the worker: every later Put spills inline

	ld := spillableResult(t, "libinline.so")
	key := CacheKey(ld.Report.Sparse.Lib(), []string{"f1"}, nil, nil)
	putDone := make(chan struct{})
	go func() {
		c.Put(key, ld)
		close(putDone)
	}()
	<-enteredCh // the inline spill is now mid-write, blocked in castore

	flushDone := make(chan struct{})
	go func() {
		c.Flush()
		close(flushDone)
	}()
	select {
	case <-flushDone:
		t.Fatal("Flush acked while an inline spill was still in flight")
	case <-time.After(100 * time.Millisecond):
	}

	close(gate)
	<-putDone
	<-flushDone
	if !st.Has(kindResult, key) {
		t.Fatal("Flush returned but the spilled result is not in the store")
	}
}

// TestCacheCloseSpillDrainsQueueAndInline floods the write-behind queue
// until Puts fall back to inline spills, then closes the spill plane:
// CloseSpill must drain every queued job and wait out every inline spill —
// nothing enqueued before the close may be dropped. Run under -race (the
// CI race gate covers this package).
func TestCacheCloseSpillDrainsQueueAndInline(t *testing.T) {
	gate := make(chan struct{})
	st, err := castore.Open(t.TempDir(), castore.Options{
		BeforeRename: func(kind, key string) error {
			<-gate
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	c := NewResultCache(1<<22, nil)
	c.AttachStore(st)

	// 4 spills wedge the workers, 64 fill the queue, the rest go inline.
	const total = 76
	ld := spillableResult(t, "libflood.so")
	keys := make([]string, total)
	var puts sync.WaitGroup
	for i := 0; i < total; i++ {
		keys[i] = fmt.Sprintf("%s-%03d", CacheKey(ld.Report.Sparse.Lib(), []string{"f1"}, nil, nil)[:16], i)
		puts.Add(1)
		go func(k string) {
			defer puts.Done()
			c.Put(k, ld)
		}(keys[i])
	}

	// Give the flood a moment to wedge, then release the store and close
	// the spill plane concurrently with the still-running Puts.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	puts.Wait()
	c.CloseSpill()

	for _, k := range keys {
		if !st.Has(kindResult, k) {
			t.Fatalf("key %s was dropped by CloseSpill", k)
		}
	}
}
