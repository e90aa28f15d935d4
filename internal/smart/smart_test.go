package smart

import (
	"errors"
	"testing"
)

func TestAttrNames(t *testing.T) {
	if got := MWI.String(); got != "MWI" {
		t.Errorf("MWI.String() = %q", got)
	}
	if got := MWI.LongName(); got != "Media Wearout Indicator" {
		t.Errorf("MWI.LongName() = %q", got)
	}
	if got := AttrID(0).String(); got != "AttrID(0)" {
		t.Errorf("invalid AttrID String = %q", got)
	}
}

func TestAllAttrsComplete(t *testing.T) {
	attrs := AllAttrs()
	if len(attrs) != 22 {
		t.Fatalf("AllAttrs len = %d, want 22 (Table I)", len(attrs))
	}
	seen := map[string]bool{}
	for _, a := range attrs {
		if !a.Valid() {
			t.Errorf("invalid attr in AllAttrs: %v", a)
		}
		if seen[a.String()] {
			t.Errorf("duplicate attr name %v", a)
		}
		seen[a.String()] = true
		if a.LongName() == "" {
			t.Errorf("attr %v has empty long name", a)
		}
	}
}

func TestParseAttrRoundTrip(t *testing.T) {
	for _, a := range AllAttrs() {
		got, err := ParseAttr(a.String())
		if err != nil {
			t.Fatalf("ParseAttr(%q): %v", a.String(), err)
		}
		if got != a {
			t.Errorf("ParseAttr(%q) = %v, want %v", a.String(), got, a)
		}
	}
	if _, err := ParseAttr("BOGUS"); err == nil {
		t.Error("ParseAttr(BOGUS) should fail")
	}
}

func TestFeatureString(t *testing.T) {
	f := Feature{Attr: UCE, Kind: Raw}
	if f.String() != "UCE_R" {
		t.Errorf("Feature.String() = %q, want UCE_R", f.String())
	}
	f = Feature{Attr: MWI, Kind: Normalized}
	if f.String() != "MWI_N" {
		t.Errorf("Feature.String() = %q, want MWI_N", f.String())
	}
}

func TestParseFeatureRoundTrip(t *testing.T) {
	for _, a := range AllAttrs() {
		for _, k := range []Kind{Raw, Normalized} {
			f := Feature{Attr: a, Kind: k}
			got, err := ParseFeature(f.String())
			if err != nil {
				t.Fatalf("ParseFeature(%q): %v", f.String(), err)
			}
			if got != f {
				t.Errorf("ParseFeature(%q) = %v, want %v", f.String(), got, f)
			}
		}
	}
}

func TestParseFeatureErrors(t *testing.T) {
	for _, bad := range []string{"", "X", "MWI", "MWI_X", "MWI-N", "BOGUS_R"} {
		if _, err := ParseFeature(bad); err == nil {
			t.Errorf("ParseFeature(%q) should fail", bad)
		}
	}
}

func TestAllModels(t *testing.T) {
	models := AllModels()
	if len(models) != 6 {
		t.Fatalf("AllModels len = %d, want 6", len(models))
	}
	wantVendors := map[string]int{"MA": 2, "MB": 2, "MC": 2}
	got := map[string]int{}
	for _, m := range models {
		got[m.Vendor()]++
	}
	for v, n := range wantVendors {
		if got[v] != n {
			t.Errorf("vendor %s count = %d, want %d", v, got[v], n)
		}
	}
}

func TestParseModel(t *testing.T) {
	for _, m := range AllModels() {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseModel(%q) = (%v, %v), want (%v, nil)", m.String(), got, err, m)
		}
	}
	if _, err := ParseModel("MZ9"); err == nil {
		t.Error("ParseModel(MZ9) should fail")
	}
}

func TestSpecOfUnknown(t *testing.T) {
	if _, err := SpecOf(ModelID(99)); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("SpecOf(99) error = %v, want ErrUnknownModel", err)
	}
}

func TestMustSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSpec(invalid) should panic")
		}
	}()
	MustSpec(ModelID(0))
}

// TestTableIAvailability spot-checks the availability matrix against
// Table I of the paper.
func TestTableIAvailability(t *testing.T) {
	tests := []struct {
		model ModelID
		attr  AttrID
		want  bool
	}{
		{MA1, RER, false}, // RER ✗ for MA1
		{MC1, RER, true},  // RER ✓ for MC1
		{MA1, PLP, true},  // PLP ✓ for MA vendor only
		{MB1, PLP, false},
		{MC1, PLP, false},
		{MA1, DEC, false}, // DEC ✗ for MA1, ✓ for MA2
		{MA2, DEC, true},
		{MA1, CMDT, true}, // CMDT ✓ MA1, ✗ MA2/MB
		{MA2, CMDT, false},
		{MB2, CMDT, false},
		{MC2, CMDT, true},
		{MA2, TLW, true}, // TLW ✓ only MA2, MB1
		{MB1, TLW, true},
		{MB2, TLW, false},
		{MC1, TLW, false},
		{MA1, UPL, true},
		{MB1, UPL, false},
		{MC1, UPL, true},
		{MA1, REC, true},
		{MA2, REC, false},
		{MC2, REC, true},
		{MA1, OCE, true},
		{MB1, OCE, false},
		{MC1, OCE, true},
	}
	for _, tt := range tests {
		spec := MustSpec(tt.model)
		if got := spec.HasAttr(tt.attr); got != tt.want {
			t.Errorf("%v.HasAttr(%v) = %v, want %v", tt.model, tt.attr, got, tt.want)
		}
	}
}

// TestUniversalAttrs verifies attributes Table I marks present for every
// model.
func TestUniversalAttrs(t *testing.T) {
	universal := []AttrID{RSC, POH, PCC, EFC, MWI, UCE, ET, AFT, PSC, CEC}
	for _, m := range AllModels() {
		spec := MustSpec(m)
		for _, a := range universal {
			if !spec.HasAttr(a) {
				t.Errorf("%v should report %v per Table I", m, a)
			}
		}
	}
}

// TestTableIIStatistics verifies the fleet statistics encode Table II.
func TestTableIIStatistics(t *testing.T) {
	tests := []struct {
		model ModelID
		flash FlashTech
		share float64
		afr   float64
	}{
		{MA1, MLC, 0.100, 0.0236},
		{MA2, MLC, 0.257, 0.0046},
		{MB1, MLC, 0.089, 0.0252},
		{MB2, MLC, 0.104, 0.0071},
		{MC1, TLC, 0.404, 0.0329},
		{MC2, TLC, 0.046, 0.0392},
	}
	for _, tt := range tests {
		spec := MustSpec(tt.model)
		if spec.Flash != tt.flash {
			t.Errorf("%v flash = %v, want %v", tt.model, spec.Flash, tt.flash)
		}
		if spec.FleetShare != tt.share {
			t.Errorf("%v fleet share = %v, want %v", tt.model, spec.FleetShare, tt.share)
		}
		if spec.TargetAFR != tt.afr {
			t.Errorf("%v AFR = %v, want %v", tt.model, spec.TargetAFR, tt.afr)
		}
	}
}

func TestFleetSharesSumToOne(t *testing.T) {
	var total, failures float64
	for _, m := range AllModels() {
		spec := MustSpec(m)
		total += spec.FleetShare
		failures += spec.FailureShare
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("fleet shares sum = %v, want ~1.0", total)
	}
	if failures < 0.99 || failures > 1.02 {
		t.Errorf("failure shares sum = %v, want ~1.0", failures)
	}
}

func TestTLCHigherAFRThanMLC(t *testing.T) {
	// Paper: "The AFRs of TLC SSDs are higher than that of MLC SSDs."
	var maxMLC, minTLC float64 = 0, 1
	for _, m := range AllModels() {
		spec := MustSpec(m)
		switch spec.Flash {
		case MLC:
			if spec.TargetAFR > maxMLC {
				maxMLC = spec.TargetAFR
			}
		case TLC:
			if spec.TargetAFR < minTLC {
				minTLC = spec.TargetAFR
			}
		}
	}
	if minTLC <= maxMLC {
		t.Errorf("TLC min AFR %v should exceed MLC max AFR %v", minTLC, maxMLC)
	}
}

func TestFeaturesTwicePerAttr(t *testing.T) {
	for _, m := range AllModels() {
		spec := MustSpec(m)
		feats := spec.Features()
		if len(feats) != 2*len(spec.Attrs) {
			t.Errorf("%v: features = %d, want %d", m, len(feats), 2*len(spec.Attrs))
		}
		names := spec.FeatureNames()
		if len(names) != len(feats) {
			t.Fatalf("%v: name count mismatch", m)
		}
		seen := map[string]bool{}
		for _, n := range names {
			if seen[n] {
				t.Errorf("%v: duplicate feature %q", m, n)
			}
			seen[n] = true
		}
	}
}

func TestAttrListSorted(t *testing.T) {
	for _, m := range AllModels() {
		attrs := MustSpec(m).AttrList()
		for i := 1; i < len(attrs); i++ {
			if attrs[i] <= attrs[i-1] {
				t.Errorf("%v AttrList not strictly sorted at %d", m, i)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if Raw.String() != "R" || Normalized.String() != "N" {
		t.Error("Kind String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("invalid Kind String mismatch")
	}
}

// TestFeatureIndex: Index numbers the catalog's features 0 to
// NumFeatures-1, each once.
func TestFeatureIndex(t *testing.T) {
	seen := make([]bool, NumFeatures)
	for _, a := range AllAttrs() {
		for _, k := range []Kind{Raw, Normalized} {
			ft := Feature{Attr: a, Kind: k}
			i := ft.Index()
			if i < 0 || i >= NumFeatures || seen[i] {
				t.Fatalf("%v: index %d out of range or taken", ft, i)
			}
			seen[i] = true
		}
	}
}
