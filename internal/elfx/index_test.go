package elfx

import (
	"math/rand"
	"sync"
	"testing"

	"negativaml/internal/cubin"
	"negativaml/internal/fatbin"
	"negativaml/internal/gpuarch"
)

// indexedLib builds a library with CPU functions and a two-element fatbin
// (one parseable cubin with entry + device-only kernels, one PTX element).
func indexedLib(t *testing.T) *Library {
	t.Helper()
	cb := cubin.New(gpuarch.SM75)
	child := cb.AddKernel(cubin.Kernel{Name: "child_k", Code: []byte{9, 9}, Flags: cubin.FlagDeviceOnly})
	cb.AddKernel(cubin.Kernel{Name: "entry_k", Code: []byte{1, 2, 3}, Flags: cubin.FlagEntry, Launches: []int{child}})
	blob, err := cb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	fb := &fatbin.FatBin{}
	reg := fb.AddRegion()
	reg.AddElement(fatbin.Element{Kind: fatbin.KindCubin, Arch: gpuarch.SM75, Payload: blob})
	reg.AddElement(fatbin.Element{Kind: fatbin.KindPTX, Arch: gpuarch.SM80, Payload: []byte("ptx text")})
	sec, err := fb.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	b := NewBuilder("libidx.so")
	b.AddFunction("fa", 64)
	b.AddFunction("fb", 96)
	b.SetFatbin(sec)
	b.SetRodata(make([]byte, 300)) // all-zero run exercises the prefix sum
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := Parse("libidx.so", data)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestLibIndexStructure(t *testing.T) {
	lib := indexedLib(t)
	x := lib.Index()

	if got := lib.Index(); got != x {
		t.Fatal("Index must return the memoized instance")
	}
	// Identical bytes → shared index, even across Parse calls.
	clone, err := Parse("renamed.so", append([]byte(nil), lib.Data...))
	if err != nil {
		t.Fatal(err)
	}
	if clone.Index() != x {
		t.Error("identical library bytes must share one index")
	}

	if !x.HasFatbin || x.FatbinErr != nil || len(x.Elements) != 2 {
		t.Fatalf("element table = %d elements (hasFB=%v, err=%v), want 2", len(x.Elements), x.HasFatbin, x.FatbinErr)
	}
	e := x.Elements[0]
	if !e.IsCubinBlob || e.Kernels != 2 || e.Arch != gpuarch.SM75 {
		t.Errorf("cubin element indexed wrong: %+v", e)
	}
	if ptx := x.Elements[1]; ptx.IsCubinBlob || ptx.Kind != fatbin.KindPTX {
		t.Errorf("ptx element indexed wrong: %+v", ptx)
	}
	if got := x.ElementsWithEntry("entry_k"); len(got) != 1 || got[0] != 0 {
		t.Errorf("ElementsWithEntry(entry_k) = %v, want [0]", got)
	}
	if got := x.ElementsWithEntry("child_k"); got != nil {
		t.Errorf("device-only kernel must not appear in the entry map, got %v", got)
	}
	// Absolute payload range must land on the cubin bytes.
	if !cubin.IsCubin(lib.Data[e.PayloadRange.Start:e.PayloadRange.End]) {
		t.Error("indexed payload range does not cover the cubin")
	}
}

func TestLibIndexByteAccounting(t *testing.T) {
	lib := indexedLib(t)
	x := lib.Index()

	if got, want := x.NonZeroBytes(), NonZeroBytes(lib.Data); got != want {
		t.Fatalf("analytic NonZeroBytes = %d, scanned %d", got, want)
	}
	if got, want := x.ResidentBytes(), ResidentBytes(lib.Data); got != want {
		t.Fatalf("analytic ResidentBytes = %d, scanned %d", got, want)
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		rg := fatbin.Range{
			Start: int64(r.Intn(len(lib.Data)+20) - 10),
			End:   int64(r.Intn(len(lib.Data)+20) - 10),
		}
		if got, want := x.NonZeroBytesIn(rg), NonZeroBytesIn(lib.Data, rg); got != want {
			t.Fatalf("analytic NonZeroBytesIn(%v) = %d, scanned %d", rg, got, want)
		}
	}
}

// TestLibIndexConcurrentFirstTouch exercises the lazy memo from many
// goroutines at once — the pool-worker pattern of the batch service — and
// is part of the CI race job.
func TestLibIndexConcurrentFirstTouch(t *testing.T) {
	lib := indexedLib(t)
	libs := make([]*Library, 8)
	for i := range libs {
		l, err := Parse("libidx.so", append([]byte(nil), lib.Data...))
		if err != nil {
			t.Fatal(err)
		}
		libs[i] = l
	}
	var wg sync.WaitGroup
	got := make([]*LibIndex, 64)
	for i := 0; i < len(got); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := libs[i%len(libs)].Index()
			_ = x.NonZeroBytes()
			_ = x.ElementsWithEntry("entry_k")
			got[i] = x
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i].Digest != got[0].Digest {
			t.Fatal("concurrent first-touch produced divergent indexes")
		}
	}
}
