package selection

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/frame"
)

func TestResolveKnownNames(t *testing.T) {
	cases := []struct {
		spec string
		want string // Ranker.Name()
	}{
		{"pearson", "Pearson"},
		{"Pearson", "Pearson"},
		{"  SPEARMAN ", "Spearman"},
		{"j-index", "J-index"},
		{"J_Index", "J-index"},
		{"jindex", "J-index"},
		{"youden", "J-index"},
		{"random-forest", "Random Forest"},
		{"Random Forest", "Random Forest"},
		{"rf", "Random Forest"},
		{"xgboost", "XGBoost"},
		{"xgb", "XGBoost"},
		{"mutual-info", "Mutual Information"},
		{"mi", "Mutual Information"},
		{"mutual.information", "Mutual Information"},
		{"svm-margin", "SVM-margin"},
		{"svm", "SVM-margin"},
	}
	for _, c := range cases {
		r, err := Resolve(c.spec, 1, 0)
		if err != nil {
			t.Errorf("Resolve(%q): %v", c.spec, err)
			continue
		}
		if r.Name() != c.want {
			t.Errorf("Resolve(%q).Name() = %q, want %q", c.spec, r.Name(), c.want)
		}
	}
}

func TestResolveUnknown(t *testing.T) {
	_, err := Resolve("bogus", 1, 0)
	if !errors.Is(err, ErrUnknownRanker) {
		t.Fatalf("error = %v, want ErrUnknownRanker", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, `"bogus"`) {
		t.Errorf("error does not quote the bad spec: %s", msg)
	}
	for _, name := range Registered() {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list registered ranker %q: %s", name, msg)
		}
	}
}

func TestResolveAllFailsFast(t *testing.T) {
	_, err := ResolveAll([]string{"pearson", "nope", "spearman"}, 1)
	if !errors.Is(err, ErrUnknownRanker) {
		t.Fatalf("error = %v, want ErrUnknownRanker", err)
	}
}

func TestRegisteredListsCanonicalNames(t *testing.T) {
	names := Registered()
	for _, want := range []string{
		"pearson", "spearman", "j-index", "random-forest", "xgboost",
		"mutual-info", "svm-margin",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Registered() = %v missing %q", names, want)
		}
	}
	// Aliases must not appear as separate entries.
	for _, alias := range []string{"rf", "xgb", "mi", "svm", "youden"} {
		for _, n := range names {
			if n == alias {
				t.Errorf("alias %q listed as a canonical name", alias)
			}
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register("pearson", func(Params) Ranker { return Pearson{} })
}

func TestRegisterNilFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil-factory Register did not panic")
		}
	}()
	Register("brand-new", nil)
}

// TestDefaultSpecsMatchDefaultRankers pins that resolving DefaultSpecs
// builds exactly the structs the pre-registry DefaultRankers returned —
// the bit-identity contract of the refactor.
func TestDefaultSpecsMatchDefaultRankers(t *testing.T) {
	got, err := ResolveAll(DefaultSpecs(), 42)
	if err != nil {
		t.Fatal(err)
	}
	want := []Ranker{
		Pearson{},
		Spearman{},
		JIndex{},
		RandomForest{Seed: 42},
		XGBoost{},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ResolveAll(DefaultSpecs) = %#v, want %#v", got, want)
	}
	if !reflect.DeepEqual(DefaultRankers(42), want) {
		t.Errorf("DefaultRankers = %#v, want %#v", DefaultRankers(42), want)
	}
}

// degenerateFrames builds the edge-case frames every registered ranker
// must survive: for each, the ranker must return either a structured
// error or a valid Result — never panic, never emit NaN ranks.
func degenerateFrames(t *testing.T) map[string]*frame.Frame {
	t.Helper()
	mk := func(names []string, cols [][]float64, labels []int) *frame.Frame {
		fr, err := frame.New(names, cols, labels, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	n := 24
	labels := make([]int, n)
	mixed := make([]float64, n)
	allNaN := make([]float64, n)
	constant := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			labels[i] = 1
		}
		mixed[i] = float64(labels[i])*5 + float64(i%4)
		allNaN[i] = math.NaN()
		constant[i] = 1.5
	}
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	return map[string]*frame.Frame{
		"empty":           mk([]string{"a"}, [][]float64{{}}, []int{}),
		"single-class":    mk([]string{"a"}, [][]float64{mixed}, ones),
		"all-nan-column":  mk([]string{"a", "nan"}, [][]float64{mixed, allNaN}, labels),
		"constant-column": mk([]string{"a", "const"}, [][]float64{mixed, constant}, labels),
	}
}

// TestRegisteredRankersDegenerateFrames drives every registered ranker,
// via the registry, over the degenerate frames. Run under -race in CI
// (rank-eval-smoke) so a panic or data race in any registered ranker —
// including future third-party ones — fails the build.
func TestRegisteredRankersDegenerateFrames(t *testing.T) {
	frames := degenerateFrames(t)
	for _, spec := range Registered() {
		r, err := Resolve(spec, 3, 0)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", spec, err)
		}
		for fname, fr := range frames {
			t.Run(spec+"/"+fname, func(t *testing.T) {
				res, err := r.Rank(fr) // must not panic
				if err != nil {
					return // structured error is a valid outcome
				}
				if len(res.Scores) != fr.NumFeatures() || len(res.Ranks) != fr.NumFeatures() {
					t.Fatalf("result misaligned: %d scores, %d ranks, %d features",
						len(res.Scores), len(res.Ranks), fr.NumFeatures())
				}
				for i, rank := range res.Ranks {
					if rank != rank {
						t.Errorf("rank[%d] is NaN", i)
					}
				}
				for i, s := range res.Scores {
					if s != s {
						t.Errorf("score[%d] is NaN", i)
					}
				}
			})
		}
	}
}
