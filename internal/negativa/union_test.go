package negativa

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func profileOf(name string, kernels, funcs map[string][]string) *Profile {
	return &Profile{Workload: name, UsedKernels: kernels, UsedFuncs: funcs}
}

func TestMergeProfilesDisjoint(t *testing.T) {
	a := profileOf("a",
		map[string][]string{"libx.so": {"k1", "k2"}},
		map[string][]string{"libx.so": {"f1"}})
	b := profileOf("b",
		map[string][]string{"liby.so": {"k3"}},
		map[string][]string{"liby.so": {"f2", "f3"}})

	u := MergeProfiles(a, b)
	if u.Workload != "a+b" {
		t.Errorf("union workload = %q, want a+b", u.Workload)
	}
	if u.RunResult != nil {
		t.Error("union RunResult must be nil")
	}
	wantK := map[string][]string{"libx.so": {"k1", "k2"}, "liby.so": {"k3"}}
	if !reflect.DeepEqual(u.UsedKernels, wantK) {
		t.Errorf("union kernels = %v, want %v", u.UsedKernels, wantK)
	}
	wantF := map[string][]string{"libx.so": {"f1"}, "liby.so": {"f2", "f3"}}
	if !reflect.DeepEqual(u.UsedFuncs, wantF) {
		t.Errorf("union funcs = %v, want %v", u.UsedFuncs, wantF)
	}
}

func TestMergeProfilesOverlapping(t *testing.T) {
	a := profileOf("a",
		map[string][]string{"libx.so": {"k2", "k1"}},
		map[string][]string{"libx.so": {"f1", "f2"}})
	b := profileOf("b",
		map[string][]string{"libx.so": {"k2", "k3"}},
		map[string][]string{"libx.so": {"f2"}})

	u := MergeProfiles(a, b)
	wantK := map[string][]string{"libx.so": {"k1", "k2", "k3"}}
	if !reflect.DeepEqual(u.UsedKernels, wantK) {
		t.Errorf("union kernels = %v, want %v (sorted, deduped)", u.UsedKernels, wantK)
	}
	wantF := map[string][]string{"libx.so": {"f1", "f2"}}
	if !reflect.DeepEqual(u.UsedFuncs, wantF) {
		t.Errorf("union funcs = %v, want %v", u.UsedFuncs, wantF)
	}
	if !u.Covers(a) || !u.Covers(b) {
		t.Error("union must cover every member")
	}
}

func TestMergeProfilesSuperset(t *testing.T) {
	small := profileOf("small",
		map[string][]string{"libx.so": {"k1"}},
		map[string][]string{"libx.so": {"f1"}})
	big := profileOf("big",
		map[string][]string{"libx.so": {"k1", "k2", "k3"}, "liby.so": {"k9"}},
		map[string][]string{"libx.so": {"f1", "f2"}})

	u := MergeProfiles(small, big)
	if !reflect.DeepEqual(u.UsedKernels, big.UsedKernels) {
		t.Errorf("union of subset+superset kernels = %v, want the superset %v", u.UsedKernels, big.UsedKernels)
	}
	if !reflect.DeepEqual(u.UsedFuncs, big.UsedFuncs) {
		t.Errorf("union of subset+superset funcs = %v, want the superset %v", u.UsedFuncs, big.UsedFuncs)
	}
	if !big.Covers(small) {
		t.Error("superset must cover subset")
	}
	if small.Covers(big) {
		t.Error("subset must not cover superset")
	}
}

func TestMergeProfilesSkipsNil(t *testing.T) {
	a := profileOf("a", map[string][]string{"libx.so": {"k1"}}, nil)
	u := MergeProfiles(nil, a, nil)
	if u.Workload != "a" {
		t.Errorf("workload = %q, want a", u.Workload)
	}
	if len(u.UsedKernels["libx.so"]) != 1 {
		t.Errorf("kernels = %v", u.UsedKernels)
	}
}

// coversBySet is the definition Covers implements: every symbol p uses, per
// library, is in u's set for that library.
func coversBySet(u, p *Profile) bool {
	for _, pair := range [][2]map[string][]string{{u.UsedKernels, p.UsedKernels}, {u.UsedFuncs, p.UsedFuncs}} {
		for lib, syms := range pair[1] {
			have := map[string]bool{}
			for _, s := range pair[0][lib] {
				have[s] = true
			}
			for _, s := range syms {
				if !have[s] {
					return false
				}
			}
		}
	}
	return true
}

// TestCoversMatchesSetDefinition checks Covers against the set definition
// on random profiles: members of the union (always covered), random
// profiles over the same symbol universe, and profiles carrying a symbol
// no member uses (never covered).
func TestCoversMatchesSetDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	libs := []string{"liba.so", "libb.so", "libc.so"}
	randSyms := func(prefix string) map[string][]string {
		out := map[string][]string{}
		for _, lib := range libs {
			if r.Intn(4) == 0 {
				continue
			}
			// Unsorted, with repeats: member profiles need not be sorted.
			for n := r.Intn(6); n > 0; n-- {
				out[lib] = append(out[lib], fmt.Sprintf("%s%d", prefix, r.Intn(12)))
			}
		}
		return out
	}
	randProfile := func() *Profile {
		return profileOf("p", randSyms("k"), randSyms("f"))
	}
	var covered, refused int
	for trial := 0; trial < 500; trial++ {
		members := make([]*Profile, 1+r.Intn(4))
		for i := range members {
			members[i] = randProfile()
		}
		u := MergeProfiles(members...)
		for _, m := range members {
			if !u.Covers(m) {
				t.Fatalf("trial %d: union %v does not cover member %v", trial, u.UsedFuncs, m.UsedFuncs)
			}
		}
		p := randProfile()
		if got, want := u.Covers(p), coversBySet(u, p); got != want {
			t.Fatalf("trial %d: Covers = %v, set definition = %v (union %v/%v, p %v/%v)",
				trial, got, want, u.UsedKernels, u.UsedFuncs, p.UsedKernels, p.UsedFuncs)
		} else if got {
			covered++
		} else {
			refused++
		}
		absent := randProfile()
		lib := libs[r.Intn(len(libs))]
		if r.Intn(2) == 0 {
			absent.UsedKernels[lib] = append(absent.UsedKernels[lib], "k_absent")
		} else {
			absent.UsedFuncs[lib] = append(absent.UsedFuncs[lib], "f_absent")
		}
		if u.Covers(absent) || coversBySet(u, absent) {
			t.Fatalf("trial %d: a symbol no member uses must not be covered", trial)
		}
	}
	if covered == 0 || refused == 0 {
		t.Fatalf("random profiles exercised one outcome only: %d covered, %d refused", covered, refused)
	}
}
