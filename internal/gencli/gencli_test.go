package gencli

import (
	"strings"
	"testing"
)

func TestGenerateAllFamilies(t *testing.T) {
	cases := []struct {
		spec      string
		wantTruth bool
	}{
		{"lfr:n=500,mu=0.3", true},
		{"lfr:n=500,mu=0.3,k=10,gamma=2.2,beta=1.3,seed=9", true},
		{"rmat:scale=8", false},
		{"rmat:scale=8,edgefactor=8,seed=3", false},
		{"bter:n=500,rho=0.4", true},
		{"sbm:n=100,comms=4,pin=0.3,pout=0.01", true},
		{"er:n=100,p=0.05", false},
		{"ring:k=5,s=4", true},
	}
	for _, c := range cases {
		el, truth, err := Generate(c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		if len(el) == 0 {
			t.Errorf("%s: empty edge list", c.spec)
		}
		if (truth != nil) != c.wantTruth {
			t.Errorf("%s: truth presence = %v, want %v", c.spec, truth != nil, c.wantTruth)
		}
	}
}

func TestGenerateDefaults(t *testing.T) {
	// Family with no parameters at all uses defaults.
	if _, _, err := Generate("ring"); err != nil {
		t.Errorf("bare family: %v", err)
	}
}

func TestGenerateErrors(t *testing.T) {
	for _, spec := range []string{
		"unknown:n=5",
		"lfr:n=abc",
		"lfr:mu",
		"rmat:scale=xyz",
		"sbm:pin=zz,n=100,comms=2",
		"er:p=nope,n=10",
		"lfr:seed=-1",
	} {
		if _, _, err := Generate(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestSize: Size counts vertices plus expected edges from the spec alone,
// in floating point, so specs far too large to generate are measured, not run.
func TestSize(t *testing.T) {
	for _, c := range []struct {
		spec string
		want float64
	}{
		{"lfr:n=2000,mu=0.3", 2000 * (1 + 16.0/2)},
		{"rmat:scale=11", 2048 * 17},
		{"rmat:scale=11,edgefactor=0", 2048 * 17},
		{"rmat:scale=30", (1 << 30) * 17},
		{"rmat:scale=30,edgefactor=9223372036854775807", (1 << 30) * (1 + 9223372036854775807.0)},
		{"bter:n=100,k=10", 100 * 6},
		{"sbm:n=1000,comms=8", 1000 + 1000*999/2},
		{"er:n=100,p=0.5", 100 + 0.5*100*99/2},
		{"ring:k=8,s=6", 8*6 + 8*15 + 8},
	} {
		got, err := Size(c.spec)
		if err != nil || got != c.want {
			t.Errorf("Size(%q) = %v, %v; want %v", c.spec, got, err, c.want)
		}
	}
	if _, err := Size("lfr:n=abc"); err == nil {
		t.Error("Size accepted a malformed spec")
	}
}

func TestUsageMentionsAllFamilies(t *testing.T) {
	for _, fam := range []string{"lfr", "rmat", "bter", "sbm", "er", "ring"} {
		if !strings.Contains(Usage, fam+":") {
			t.Errorf("Usage missing %s", fam)
		}
	}
}

func TestGenerateDeterministicSeeds(t *testing.T) {
	a, _, err := Generate("rmat:scale=7,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := Generate("rmat:scale=7,seed=5")
	if len(a) != len(b) {
		t.Fatal("same spec, different output")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same spec, different edges")
		}
	}
}

func FuzzGenerate(f *testing.F) {
	f.Add("lfr:n=200,mu=0.3")
	f.Add("rmat:scale=5")
	f.Add("ring:k=3,s=2")
	f.Add("er:n=10,p=0.5")
	f.Add("::::")
	f.Add("lfr:n=999999999999")
	f.Fuzz(func(t *testing.T, spec string) {
		// Bound the sizes hostile specs can request.
		if len(spec) > 64 {
			return
		}
		el, truth, err := Generate(boundSpec(spec))
		if err != nil {
			return
		}
		if truth != nil && len(truth) == 0 && len(el) > 0 {
			t.Error("non-nil empty truth with edges")
		}
	})
}

// boundSpec caps numeric parameters so fuzzing cannot request huge graphs.
func boundSpec(spec string) string {
	fam, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return spec
	}
	parts := strings.Split(rest, ",")
	for i, kv := range parts {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		if len(v) > 3 { // cap at 3 digits
			parts[i] = k + "=" + v[:3]
		}
	}
	return fam + ":" + strings.Join(parts, ",")
}
