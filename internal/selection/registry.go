package selection

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/hist"
)

// ErrUnknownRanker indicates a spec naming no registered ranker.
var ErrUnknownRanker = errors.New("selection: unknown ranker")

// Params carries the deterministic settings a Factory may thread into
// the ranker it builds. Factories of rankers without randomness or tree
// training simply ignore them.
type Params struct {
	// Seed makes randomized rankers deterministic.
	Seed int64
}

// Factory builds one ranker instance from deterministic parameters.
type Factory func(p Params) Ranker

// registry is the process-wide ranker registry. Keys are normalized
// spec names; entries keep the canonical display spelling so listings
// stay readable.
var registry = struct {
	sync.RWMutex
	byKey     map[string]Factory
	canonical map[string]string // normalized key -> canonical name
	names     []string          // canonical names, registration order
}{
	byKey:     map[string]Factory{},
	canonical: map[string]string{},
}

// normalizeSpec canonicalizes a ranker spec for lookup: lower-cased
// with spaces, dashes, underscores, and dots removed, so "-rankers
// Random-Forest" and "random forest" resolve the same entry.
func normalizeSpec(spec string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(spec)) {
		switch r {
		case ' ', '-', '_', '.':
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// Register adds a ranker factory to the registry under a canonical
// name plus optional aliases, making it resolvable by Resolve and by
// every spec-driven surface built on it (core.Config.RankerSpecs, the
// -rankers CLI flags, and the rank-eval harness). It panics on an
// empty or already-taken name — registration is an init-time act and a
// collision is a programming error, mirroring database/sql.Register.
func Register(name string, f Factory, aliases ...string) {
	if f == nil {
		panic("selection: Register with nil factory")
	}
	key := normalizeSpec(name)
	if key == "" {
		panic("selection: Register with empty name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byKey[key]; dup {
		panic(fmt.Sprintf("selection: ranker %q already registered", name))
	}
	registry.byKey[key] = f
	registry.canonical[key] = name
	registry.names = append(registry.names, name)
	for _, alias := range aliases {
		ak := normalizeSpec(alias)
		if ak == "" {
			panic(fmt.Sprintf("selection: ranker %q has empty alias", name))
		}
		if _, dup := registry.byKey[ak]; dup {
			panic(fmt.Sprintf("selection: ranker alias %q already registered", alias))
		}
		registry.byKey[ak] = f
		registry.canonical[ak] = name
	}
}

// Registered returns the canonical names of all registered rankers,
// sorted; aliases are not listed.
func Registered() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := append([]string(nil), registry.names...)
	sort.Strings(out)
	return out
}

// Resolve builds the ranker registered under spec (case- and
// punctuation-insensitive; aliases accepted) with the given
// deterministic parameters. An unknown spec returns ErrUnknownRanker
// carrying the registered names, so CLI surfaces fail fast with the
// full menu.
//
// The third parameter is ignored: it is kept only because perfbench,
// which changes only together with the benchmark definition, still
// passes engine.Config.SplitMethod.
func Resolve(spec string, seed int64, _ hist.SplitMethod) (Ranker, error) {
	registry.RLock()
	f, ok := registry.byKey[normalizeSpec(spec)]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)",
			ErrUnknownRanker, spec, strings.Join(Registered(), ", "))
	}
	return f(Params{Seed: seed}), nil
}

// ResolveAll resolves every spec in order; the first unknown name
// fails the whole batch.
func ResolveAll(specs []string, seed int64) ([]Ranker, error) {
	out := make([]Ranker, 0, len(specs))
	for _, spec := range specs {
		r, err := Resolve(spec, seed, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// DefaultSpecs returns the registry specs of the paper's five
// preliminary approaches, in the paper's order. Resolving them is
// bit-identical to DefaultRankers.
func DefaultSpecs() []string {
	return []string{"pearson", "spearman", "j-index", "random-forest", "xgboost"}
}

func init() {
	Register("pearson", func(Params) Ranker { return Pearson{} })
	Register("spearman", func(Params) Ranker { return Spearman{} })
	Register("j-index", func(Params) Ranker { return JIndex{} }, "youden")
	Register("random-forest", func(p Params) Ranker {
		return RandomForest{Seed: p.Seed}
	}, "rf")
	Register("xgboost", func(Params) Ranker { return XGBoost{} }, "xgb")
	Register("mutual-info", func(Params) Ranker { return MutualInfo{} },
		"mi", "mutual-information")
	Register("svm-margin", func(p Params) Ranker {
		return SVMMargin{Seed: p.Seed}
	}, "svm")
}
