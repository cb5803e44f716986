package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// outcome is one attempted submission as the client saw it. The report
// fields are compared with the batch's reference after the timed phase, so
// references for batches first seen mid-run are computed off the clock.
type outcome struct {
	def      batchDef
	lat      time.Duration
	err      error // transport error, refusal, failed job or timeout
	sigs     []libSig
	fp       string
	verified bool
	wrong    string // set when the output disagrees with the reference
	// probe marks a deliberately malformed request; refused with its
	// documented status it is a success, and it is never a batch.
	probe bool
	// at is when the client finished with the batch.
	at time.Time
	// fetch streams one of the job's debloated libraries, while the job is
	// still retained; nil when the workload checks images itself.
	fetch func(lib string) (io.ReadCloser, error)
}

func (o *outcome) ok() bool { return o.err == nil && o.wrong == "" }

// recorder collects a phase's outcomes from the client goroutines.
type recorder struct {
	mu       sync.Mutex
	outcomes []*outcome
	// plantFault flips one byte of every fetched image before hashing: the
	// self-test that a wrong output is counted as failed.
	plantFault bool
	// offCPU and offAlloc add up the harness work done between batches
	// inside the timed phase (see offClock).
	offCPU   time.Duration
	offAlloc uint64
}

// offClock runs harness work that falls inside the timed phase, such as an
// image check or removing a data dir, and records the CPU time and the
// allocation it took, which the phase subtracts from the program's. The
// goroutine keeps its thread meanwhile, so the thread's CPU clock times
// exactly this work.
func (r *recorder) offClock(f func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, a0 := threadCPUTime(), totalAlloc()
	f()
	c, a := threadCPUTime()-c0, totalAlloc()-a0
	r.mu.Lock()
	r.offCPU += c
	r.offAlloc += a
	r.mu.Unlock()
}

func (r *recorder) add(o *outcome) {
	o.at = time.Now()
	r.mu.Lock()
	r.outcomes = append(r.outcomes, o)
	r.mu.Unlock()
}

// checkReport compares a completed batch's report with its reference.
func (o *outcome) checkReport(ref *reference) {
	switch {
	case !o.verified:
		o.wrong = "batch did not report verified"
	case o.fp != ref.fp:
		o.wrong = fmt.Sprintf("install fingerprint %.12s, reference %.12s", o.fp, ref.fp)
	case len(o.sigs) != len(ref.libs):
		o.wrong = fmt.Sprintf("%d libraries, reference %d", len(o.sigs), len(ref.libs))
	default:
		for i := range o.sigs {
			if o.sigs[i] != ref.libs[i] {
				o.wrong = fmt.Sprintf("library %s report %+v, reference %+v", o.sigs[i].Name, o.sigs[i], ref.libs[i])
				return
			}
		}
	}
}

// checkImage fetches one library image and compares its bytes (by SHA-256)
// with the reference image.
func (r *recorder) checkImage(o *outcome, ref *reference, lib string, fetch func(string) (io.ReadCloser, error)) {
	rc, err := fetch(lib)
	if err != nil {
		o.wrong = fmt.Sprintf("fetch %s: %v", lib, err)
		return
	}
	defer rc.Close()
	var src io.Reader = rc
	if r.plantFault {
		src = &flipReader{r: rc}
	}
	h := sha256.New()
	if _, err := io.Copy(h, src); err != nil {
		o.wrong = fmt.Sprintf("fetch %s: %v", lib, err)
		return
	}
	var got [sha256.Size]byte
	copy(got[:], h.Sum(nil))
	if got != ref.images[lib] {
		o.wrong = fmt.Sprintf("library %s image differs from the reference", lib)
	}
}

// prepareRefs computes the references of every batch first seen during the
// phase, two at a time (the machine has two CPUs).
func (r *recorder) prepareRefs(book *refBook) error {
	todo := make(chan batchDef)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range todo {
				if _, err := book.get(d); err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}
		}()
	}
	seen := map[string]bool{}
	for _, o := range r.outcomes {
		if !o.probe && o.err == nil && !seen[o.def.key()] {
			seen[o.def.key()] = true
			todo <- o.def
		}
	}
	close(todo)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// flipReader inverts the first byte it passes through.
type flipReader struct {
	r       io.Reader
	flipped bool
}

func (f *flipReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && !f.flipped {
		p[0] ^= 0xFF
		f.flipped = true
	}
	return n, err
}

// verifyAll checks every completed batch's report against its reference,
// then fetches a seed-chosen sample of images (one library from about one
// batch in eight that still has a fetcher) plus every library of the last
// fetchable batch.
func (r *recorder) verifyAll(book *refBook, rng *rand.Rand) error {
	if err := r.prepareRefs(book); err != nil {
		return err
	}
	var last *outcome
	for _, o := range r.outcomes {
		if o.probe || o.err != nil {
			continue
		}
		ref, err := book.get(o.def)
		if err != nil {
			return err
		}
		o.checkReport(ref)
		if o.wrong == "" && o.fetch != nil {
			last = o
		}
	}
	for _, o := range r.outcomes {
		if o.probe || !o.ok() || o.fetch == nil || o == last || rng.Intn(8) != 0 {
			continue
		}
		ref, _ := book.get(o.def)
		r.checkImage(o, ref, ref.libs[rng.Intn(len(ref.libs))].Name, o.fetch)
	}
	if last != nil {
		ref, _ := book.get(last.def)
		for _, l := range ref.libs {
			if r.checkImage(last, ref, l.Name, last.fetch); last.wrong != "" {
				break
			}
		}
	}
	return nil
}
