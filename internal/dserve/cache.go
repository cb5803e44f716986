package dserve

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"negativaml/internal/castore"
	"negativaml/internal/elfx"
	"negativaml/internal/gpuarch"
	"negativaml/internal/metrics"
	"negativaml/internal/negativa"
)

// CacheKey derives the content address of one locate+compact computation —
// the shared hash of the locate and compact stage keys
// (negativa.LocateKey / negativa.CompactKey). The library name is
// deliberately excluded: identical libraries shared across installs (the
// dependency tail) hit the cache no matter which install or job they
// arrive through; hits re-label the report with the requesting library's
// name.
func CacheKey(lib *elfx.Library, usedFuncs, usedKernels []string, archs []gpuarch.SM) string {
	return negativa.LocateKey(lib, usedFuncs, usedKernels, archs).Hash
}

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// ResultCache is the content-addressed locate+compact cache with LRU
// eviction bounded by retained bytes, not entry count: entries are sparse
// (a range set plus the report), so their real heap cost varies by orders
// of magnitude and a byte bound is the honest knob. A sparse entry keeps
// its original library image alive, so the cache also charges each
// distinct referenced image once (refcounted across entries) — the bound
// covers everything the cache alone can pin after the owning install is
// evicted. Charging once is only honest if the cache holds the image once:
// Image hands out the image held for a digest, and callers that would parse
// another copy of the same bytes (a peer compact decoding a shipped library)
// resolve to it instead, so every entry over one library pins one image.
// Stored values are immutable: hits hand out the shared report
// and sparse image, which callers must treat as read-only. Concurrent
// misses on the same key may compute the result twice; both Puts store
// identical content, so the race is benign.
type ResultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*list.Element
	lru      list.List // front = most recently used
	// libRefs counts entries referencing each distinct library image;
	// the image's bytes are charged while the count is non-zero. images
	// holds, per digest, the image Image hands out.
	libRefs  map[[sha256.Size]byte]int
	images   map[[sha256.Size]byte]*heldImage
	hits     int64
	misses   int64
	evicted  int64
	counters *metrics.CounterSet

	// store, when attached, is the disk-backed second tier: Put spills
	// results to it and GetOrLoad falls back to it on memory misses, so a
	// restarted service (or one whose memory tier evicted an entry) serves
	// warm without re-running locate/compact.
	store *castore.Store
	// spillCh feeds the write-behind worker: Put hands the disk spill to
	// it instead of fsyncing on the serve path. A full queue falls back to
	// an inline spill (backpressure), so disk writes never outrun the
	// worker unboundedly. Guarded by mu; nil once CloseSpill has run.
	spillCh chan spillJob
	spillWG sync.WaitGroup
	// inlineSpills counts backpressure spills currently running outside
	// the worker (queue full, or worker stopped). They are invisible to
	// the channel's barrier ordering, so Flush and CloseSpill wait on this
	// count — via inlineDone, signalled at zero — in addition to the
	// worker's ack. Guarded by mu.
	inlineSpills int
	inlineDone   *sync.Cond
}

// heldImage is the image Image hands out for one digest. refs counts the
// entries put since it became the held image whose sparse report references
// that very *elfx.Library; the cache drops it when they are gone, so it
// never pins an image no entry uses.
type heldImage struct {
	lib  *elfx.Library
	refs int
}

// spillJob is one queued write-behind spill; a job with ack set is a
// Flush barrier — the worker closes ack instead of writing.
type spillJob struct {
	key string
	ld  *negativa.LibDebloat
	ack chan struct{}
}

type cacheEntry struct {
	key  string
	ld   *negativa.LibDebloat
	size int64
	// lib is the original image the sparse report references (nil for
	// reports without one, e.g. in tests), libDigest its content digest.
	lib       *elfx.Library
	libDigest [sha256.Size]byte
}

// entrySize charges an entry with the bytes its sparse report itself pins
// (key string + report + range set); the referenced library image is
// charged separately, once per distinct image, via libRefs.
func entrySize(key string, ld *negativa.LibDebloat) int64 {
	return int64(len(key)) + 64 + ld.Report.RetainedBytes()
}

// NewResultCache returns a cache bounded to maxBytes of retained entries
// (values < 1 are treated as 1 byte, i.e. effectively a single-entry
// scratch). counters, when non-nil, mirrors cache.hits / cache.misses /
// cache.evictions, and tracks cache.bytes as a gauge, for the service
// metrics endpoint.
func NewResultCache(maxBytes int64, counters *metrics.CounterSet) *ResultCache {
	if maxBytes < 1 {
		maxBytes = 1
	}
	c := &ResultCache{
		maxBytes: maxBytes,
		entries:  map[string]*list.Element{},
		libRefs:  map[[sha256.Size]byte]int{},
		images:   map[[sha256.Size]byte]*heldImage{},
		counters: counters,
	}
	c.inlineDone = sync.NewCond(&c.mu)
	return c
}

func (c *ResultCache) count(name string, p *int64) {
	*p++
	if c.counters != nil {
		c.counters.Add(name, 1)
	}
}

// addBytes adjusts the retained-byte gauge.
func (c *ResultCache) addBytes(delta int64) {
	c.bytes += delta
	if c.counters != nil {
		c.counters.Add("cache.bytes", delta)
	}
}

// AttachStore wires the disk-backed second tier in and starts the
// write-behind spill worker. Call before serving; the cache never
// detaches a store.
func (c *ResultCache) AttachStore(st *castore.Store) {
	c.mu.Lock()
	c.store = st
	if c.spillCh == nil {
		c.spillCh = make(chan spillJob, 64)
		c.spillWG.Add(1)
		go c.spillLoop(st, c.spillCh)
	}
	c.mu.Unlock()
}

// spillConcurrency bounds in-flight write-behind spills. Each spill is a
// handful of fsyncs; issuing a few concurrently lets the device coalesce
// flushes instead of paying every sync's full latency serially.
const spillConcurrency = 4

// spillLoop is the write-behind dispatcher: it drains queued spills into
// the store, off the serve path, running up to spillConcurrency at once.
// A Flush barrier waits for everything dispatched before it — the
// dispatcher reads nothing further until the ack is released, so barrier
// ordering holds. A failed spill only costs durability — the memory tier
// already took the entry — so it is counted, not fatal.
func (c *ResultCache) spillLoop(st *castore.Store, ch chan spillJob) {
	defer c.spillWG.Done()
	sem := make(chan struct{}, spillConcurrency)
	var inflight sync.WaitGroup
	for j := range ch {
		if j.ack != nil {
			inflight.Wait()
			close(j.ack)
			continue
		}
		inflight.Add(1)
		sem <- struct{}{}
		go func(j spillJob) {
			defer func() { <-sem; inflight.Done() }()
			if err := spillResult(st, j.key, j.ld); err != nil && c.counters != nil {
				c.counters.Add("cache.spill_errors", 1)
			}
		}(j)
	}
	inflight.Wait()
}

// Flush blocks until every spill queued before the call has reached the
// store — including inline backpressure spills that bypassed the worker
// queue, which the channel barrier alone cannot see. Shutdown and tests
// use it; the serving path never waits on disk. Must not race CloseSpill.
func (c *ResultCache) Flush() {
	c.mu.Lock()
	if c.spillCh != nil {
		// The barrier send happens under mu so CloseSpill cannot close the
		// channel out from under it; the worker never takes mu, so the
		// send always drains even when the queue is momentarily full.
		ack := make(chan struct{})
		c.spillCh <- spillJob{ack: ack}
		c.mu.Unlock()
		<-ack
		c.mu.Lock()
	}
	// Inline spills started before this call hold the count; waiting for
	// zero closes the barrier's blind spot. Inline spills that start
	// after Flush was called may also be waited on — stricter than
	// required, and harmless.
	for c.inlineSpills > 0 {
		c.inlineDone.Wait()
	}
	c.mu.Unlock()
}

// CloseSpill drains the spill queue — and any inline backpressure spills
// in flight — then stops the worker. The cache remains usable afterwards:
// later Puts spill inline, as they do when the queue is full.
func (c *ResultCache) CloseSpill() {
	c.mu.Lock()
	ch := c.spillCh
	c.spillCh = nil
	c.mu.Unlock()
	if ch != nil {
		close(ch)
		c.spillWG.Wait()
	}
	c.mu.Lock()
	for c.inlineSpills > 0 {
		c.inlineDone.Wait()
	}
	c.mu.Unlock()
}

// Get returns the cached result for the key, refreshing its recency.
func (c *ResultCache) Get(key string) (*negativa.LibDebloat, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.count("cache.misses", &c.misses)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.count("cache.hits", &c.hits)
	return el.Value.(*cacheEntry).ld, true
}

// Contains reports whether the key is resident in the memory tier,
// without touching recency or the hit/miss counters — the batch
// prefetch's local-presence probe must not skew the cache's observed
// behavior.
func (c *ResultCache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// HasStored reports whether the attached store holds the key's persisted
// result (metadata plus the encoded sparse range set), without decoding
// anything. Keys replication pushed to this node probe true, so the batch
// prefetch skips re-fetching what LoadStored will serve without a round
// trip.
func (c *ResultCache) HasStored(key string) bool {
	c.mu.Lock()
	st := c.store
	c.mu.Unlock()
	if st == nil {
		return false
	}
	return st.Has(kindResult, key) && st.Has(kindSparse, key)
}

// GetOrLoad is the two-tier lookup: memory first, then the attached store
// (decoding the persisted range set against the caller's live library),
// then a miss. Disk hits are promoted into the memory tier. lib anchors the
// reconstruction; a stored result whose digest does not match it is ignored.
func (c *ResultCache) GetOrLoad(key string, lib *elfx.Library) (*negativa.LibDebloat, bool) {
	if ld, ok := c.Get(key); ok {
		return ld, true
	}
	return c.LoadStored(key, lib)
}

// LoadStored is the disk tier alone: the attached store's persisted range
// set is decoded against the caller's live library and promoted into the
// memory tier. Callers that need to distinguish memory hits from disk
// restores (the stage memo's source attribution) call Get then LoadStored;
// everyone else uses GetOrLoad.
func (c *ResultCache) LoadStored(key string, lib *elfx.Library) (*negativa.LibDebloat, bool) {
	c.mu.Lock()
	st := c.store
	c.mu.Unlock()
	if st == nil || lib == nil {
		return nil, false
	}
	ld, ok := loadResult(st, key, lib)
	if !ok {
		return nil, false
	}
	c.put(key, ld, false) // promote without re-spilling what we just read
	return ld, true
}

// Image returns the library image the cache holds for the digest when it
// is named name, so a caller about to parse the same bytes can share it.
// The caller must still confirm the bytes it has are the image's.
func (c *ResultCache) Image(digest [sha256.Size]byte, name string) (*elfx.Library, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	img, ok := c.images[digest]
	if !ok || img.lib.Name != name {
		return nil, false
	}
	return img.lib, true
}

// retainLib charges the entry's referenced library image on its first
// reference; releaseLib refunds it on the last.
func (c *ResultCache) retainLib(ent *cacheEntry) {
	if ent.lib == nil {
		return
	}
	c.libRefs[ent.libDigest]++
	if c.libRefs[ent.libDigest] == 1 {
		c.addBytes(ent.lib.FileSize())
	}
	switch img := c.images[ent.libDigest]; {
	case img == nil:
		c.images[ent.libDigest] = &heldImage{lib: ent.lib, refs: 1}
	case img.lib == ent.lib:
		img.refs++
	}
}

func (c *ResultCache) releaseLib(ent *cacheEntry) {
	if ent.lib == nil {
		return
	}
	c.libRefs[ent.libDigest]--
	if c.libRefs[ent.libDigest] == 0 {
		delete(c.libRefs, ent.libDigest)
		c.addBytes(-ent.lib.FileSize())
	}
	if img := c.images[ent.libDigest]; img != nil && img.lib == ent.lib {
		if img.refs--; img.refs == 0 {
			delete(c.images, ent.libDigest)
		}
	}
}

// evictOver drops least-recently-used entries until the retained bytes fit
// the bound; the most recent entry is never evicted, so one oversized
// result still caches.
func (c *ResultCache) evictOver() {
	for c.bytes > c.maxBytes && len(c.entries) > 1 {
		oldest := c.lru.Back()
		ent := oldest.Value.(*cacheEntry)
		c.lru.Remove(oldest)
		delete(c.entries, ent.key)
		c.addBytes(-ent.size)
		c.releaseLib(ent)
		c.count("cache.evictions", &c.evicted)
	}
}

// Put stores a result, evicting least-recently-used entries until the
// retained bytes fit the bound, and spills it to the attached store so the
// result survives both memory eviction and restarts. Re-putting an existing
// key refreshes its recency (and re-checks the bound if the size changed).
func (c *ResultCache) Put(key string, ld *negativa.LibDebloat) {
	c.put(key, ld, true)
}

// enqueueSpill hands the entry to the write-behind worker. The send
// happens under mu (non-blocking) so it cannot race CloseSpill closing
// the channel; a full queue or a stopped worker falls back to an inline
// spill outside the lock — castore does its own locking and file I/O.
// The inline path registers itself in inlineSpills before dropping mu, so
// a Flush or CloseSpill barrier taken at any point after the fallback
// decision cannot ack until this spill has landed.
func (c *ResultCache) enqueueSpill(key string, ld *negativa.LibDebloat) {
	c.mu.Lock()
	st := c.store
	enqueued := false
	if st != nil && c.spillCh != nil {
		select {
		case c.spillCh <- spillJob{key: key, ld: ld}:
			enqueued = true
		default:
		}
	}
	if st == nil || enqueued {
		c.mu.Unlock()
		return
	}
	c.inlineSpills++
	c.mu.Unlock()
	if err := spillResult(st, key, ld); err != nil && c.counters != nil {
		c.counters.Add("cache.spill_errors", 1)
	}
	c.mu.Lock()
	c.inlineSpills--
	if c.inlineSpills == 0 {
		c.inlineDone.Broadcast()
	}
	c.mu.Unlock()
}

func (c *ResultCache) put(key string, ld *negativa.LibDebloat, spill bool) {
	if spill && ld.Report != nil && ld.Report.Sparse != nil {
		c.enqueueSpill(key, ld)
	}
	ent := &cacheEntry{key: key, ld: ld, size: entrySize(key, ld)}
	if sp := ld.Report.Sparse; sp != nil {
		ent.lib = sp.Lib()
		ent.libDigest = ent.lib.ContentDigest()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		old := el.Value.(*cacheEntry)
		c.addBytes(ent.size - old.size)
		c.retainLib(ent)
		c.releaseLib(old)
		el.Value = ent
		c.lru.MoveToFront(el)
		c.evictOver()
		return
	}
	c.entries[key] = c.lru.PushFront(ent)
	c.addBytes(ent.size)
	c.retainLib(ent)
	c.evictOver()
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the retained bytes currently charged to the cache.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns a snapshot of cache effectiveness.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: len(c.entries), Bytes: c.bytes, Hits: c.hits, Misses: c.misses, Evictions: c.evicted}
}
