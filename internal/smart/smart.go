// Package smart defines the SMART attribute catalog and the drive-model
// specifications used throughout the repository. It encodes Table I
// (attribute availability per drive model) and the fleet-level statistics
// of Table II of the WEFR paper (DSN 2021), and it establishes the naming
// convention for learning features: each SMART attribute contributes a
// raw value ("<ATTR>_R") and a normalized value ("<ATTR>_N").
package smart

import (
	"errors"
	"fmt"
	"sort"
)

// AttrID identifies one of the 22 SMART attributes in the dataset.
type AttrID int

// The 22 SMART attributes of Table I. Enum values start at 1 so the zero
// value is invalid and accidental zero-initialization is detectable.
const (
	RER  AttrID = iota + 1 // Raw Read Error Rate
	RSC                    // Reallocated Sectors Count
	POH                    // Power-On Hours
	PCC                    // Power Cycle Count
	PFC                    // Program Fail Count
	EFC                    // Erase Fail Count
	MWI                    // Media Wearout Indicator
	PLP                    // Power Loss Protection Failure
	UPL                    // Unexpected Power Loss Count
	ARS                    // Available Reserved Space
	DEC                    // Downshift Error Count
	ETE                    // End-to-End Error
	UCE                    // Reported Uncorrectable Errors
	CMDT                   // Command Timeout
	ET                     // Enclosure Temperature
	AFT                    // Airflow Temperature
	REC                    // Reallocated Event Count
	PSC                    // Current Pending Sector Count
	OCE                    // Offline Scan Uncorrectable Error
	CEC                    // UDMA CRC Error Count
	TLW                    // Total LBAs Written
	TLR                    // Total LBAs Read

	numAttrs = int(TLR)
)

// attrNames maps AttrID to the short names used in the paper.
var attrNames = [...]string{
	RER: "RER", RSC: "RSC", POH: "POH", PCC: "PCC", PFC: "PFC",
	EFC: "EFC", MWI: "MWI", PLP: "PLP", UPL: "UPL", ARS: "ARS",
	DEC: "DEC", ETE: "ETE", UCE: "UCE", CMDT: "CMDT", ET: "ET",
	AFT: "AFT", REC: "REC", PSC: "PSC", OCE: "OCE", CEC: "CEC",
	TLW: "TLW", TLR: "TLR",
}

// attrLongNames maps AttrID to the full SMART attribute names of Table I.
var attrLongNames = [...]string{
	RER: "Raw Read Error Rate", RSC: "Reallocated Sectors Count",
	POH: "Power-On Hours", PCC: "Power Cycle Count",
	PFC: "Program Fail Count", EFC: "Erase Fail Count",
	MWI: "Media Wearout Indicator", PLP: "Power Loss Protection Failure",
	UPL: "Unexpected Power Loss Count", ARS: "Available Reserved Space",
	DEC: "Downshift Error Count", ETE: "End-to-End error",
	UCE: "Reported Uncorrectable Errors", CMDT: "Command Timeout",
	ET: "Enclosure Temperature", AFT: "Airflow Temperature",
	REC: "Reallocated Event Count", PSC: "Current Pending Sector Count",
	OCE: "Offline Scan Uncorrectable Error", CEC: "UDMA CRC Error Count",
	TLW: "Total LBAs Written", TLR: "Total LBAs Read",
}

// String returns the short attribute name (e.g. "MWI").
func (a AttrID) String() string {
	if !a.Valid() {
		return fmt.Sprintf("AttrID(%d)", int(a))
	}
	return attrNames[a]
}

// LongName returns the full attribute name from Table I.
func (a AttrID) LongName() string {
	if !a.Valid() {
		return fmt.Sprintf("AttrID(%d)", int(a))
	}
	return attrLongNames[a]
}

// Valid reports whether a names one of the 22 catalog attributes.
func (a AttrID) Valid() bool { return a >= RER && a <= TLR }

// AllAttrs returns the catalog attribute IDs in declaration order.
func AllAttrs() []AttrID {
	out := make([]AttrID, 0, numAttrs)
	for a := RER; a <= TLR; a++ {
		out = append(out, a)
	}
	return out
}

// ParseAttr resolves a short attribute name (e.g. "MWI") to its AttrID.
func ParseAttr(name string) (AttrID, error) {
	for a := RER; a <= TLR; a++ {
		if attrNames[a] == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("smart: unknown attribute %q", name)
}

// Kind distinguishes the raw and normalized value of a SMART attribute.
type Kind int

// Feature value kinds. SMART reports every attribute twice: the raw
// counter and a vendor-normalized health value.
const (
	Raw Kind = iota + 1
	Normalized
)

// String returns the suffix convention used in the paper ("R" or "N").
func (k Kind) String() string {
	switch k {
	case Raw:
		return "R"
	case Normalized:
		return "N"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Feature identifies one learning feature: the raw or normalized value
// of one SMART attribute.
type Feature struct {
	Attr AttrID
	Kind Kind
}

// String returns the paper's feature naming convention, e.g. "MWI_N".
func (f Feature) String() string { return f.Attr.String() + "_" + f.Kind.String() }

// NumFeatures is the size of the feature catalog: every attribute's
// raw and normalized value.
const NumFeatures = 2 * numAttrs

// Index returns a valid feature's position in the catalog, in
// [0, NumFeatures): attributes in declaration order, raw before
// normalized. Tables of per-feature columns are indexed by it; an
// invalid feature's Index is meaningless and may fall outside.
func (f Feature) Index() int { return 2*(int(f.Attr)-1) + int(f.Kind) - 1 }

// Valid reports whether f is in the catalog: a valid attribute and a
// Raw or Normalized kind.
func (f Feature) Valid() bool { return f.Attr.Valid() && (f.Kind == Raw || f.Kind == Normalized) }

// ParseFeature parses a feature name of the form "<ATTR>_<R|N>".
func ParseFeature(name string) (Feature, error) {
	if len(name) < 3 || name[len(name)-2] != '_' {
		return Feature{}, fmt.Errorf("smart: malformed feature name %q", name)
	}
	attr, err := ParseAttr(name[:len(name)-2])
	if err != nil {
		return Feature{}, err
	}
	switch name[len(name)-1] {
	case 'R':
		return Feature{Attr: attr, Kind: Raw}, nil
	case 'N':
		return Feature{Attr: attr, Kind: Normalized}, nil
	default:
		return Feature{}, fmt.Errorf("smart: malformed feature kind in %q", name)
	}
}

// ModelID identifies one of the six drive models in the dataset.
type ModelID int

// The six drive models: two each from vendors MA, MB, MC.
const (
	MA1 ModelID = iota + 1
	MA2
	MB1
	MB2
	MC1
	MC2

	numModels = int(MC2)
)

var modelNames = [...]string{
	MA1: "MA1", MA2: "MA2", MB1: "MB1", MB2: "MB2", MC1: "MC1", MC2: "MC2",
}

// String returns the model name used in the paper (e.g. "MC1").
func (m ModelID) String() string {
	if !m.Valid() {
		return fmt.Sprintf("ModelID(%d)", int(m))
	}
	return modelNames[m]
}

// Valid reports whether m names one of the six dataset models.
func (m ModelID) Valid() bool { return m >= MA1 && m <= MC2 }

// Vendor returns the vendor prefix ("MA", "MB", or "MC").
func (m ModelID) Vendor() string {
	if !m.Valid() {
		return "??"
	}
	return modelNames[m][:2]
}

// AllModels returns the six model IDs in declaration order.
func AllModels() []ModelID {
	return []ModelID{MA1, MA2, MB1, MB2, MC1, MC2}
}

// ParseModel resolves a model name (e.g. "MC1") to its ModelID.
func ParseModel(name string) (ModelID, error) {
	for _, m := range AllModels() {
		if modelNames[m] == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("smart: unknown drive model %q", name)
}

// FlashTech is the NAND flash technology of a drive model.
type FlashTech int

// Flash technologies present in the dataset.
const (
	MLC FlashTech = iota + 1
	TLC
)

// String returns "MLC" or "TLC".
func (f FlashTech) String() string {
	switch f {
	case MLC:
		return "MLC"
	case TLC:
		return "TLC"
	default:
		return fmt.Sprintf("FlashTech(%d)", int(f))
	}
}

// Spec describes one drive model: which SMART attributes it reports
// (Table I) and the fleet-level statistics the paper gives for it
// (Table II). FleetShare and FailureShare are fractions of the whole
// six-model population; TargetAFR is the paper's annualized failure rate
// and is used by the simulator to calibrate failure intensity.
type Spec struct {
	Model        ModelID
	Flash        FlashTech
	Attrs        map[AttrID]bool
	FleetShare   float64 // fraction of the SSD population (Table II "Total%")
	FailureShare float64 // fraction of all failures (Table II "Failures%")
	TargetAFR    float64 // annualized failure rate, fraction (Table II "AFR")
}

// ErrUnknownModel is returned by SpecOf for an invalid ModelID.
var ErrUnknownModel = errors.New("smart: unknown drive model")

// attrSet builds an availability set from a list of present attributes.
func attrSet(present ...AttrID) map[AttrID]bool {
	m := make(map[AttrID]bool, len(present))
	for _, a := range present {
		m[a] = true
	}
	return m
}

// specs encodes Tables I and II. The availability matrix follows Table I
// exactly: a ✓ in the table maps to membership in Attrs.
var specs = map[ModelID]Spec{
	MA1: {
		Model: MA1, Flash: MLC,
		Attrs: attrSet(RSC, POH, PCC, PFC, EFC, MWI, PLP, UPL, ARS, ETE,
			UCE, CMDT, ET, AFT, REC, PSC, OCE, CEC),
		FleetShare: 0.100, FailureShare: 0.209, TargetAFR: 0.0236,
	},
	MA2: {
		Model: MA2, Flash: MLC,
		Attrs: attrSet(RSC, POH, PCC, PFC, EFC, MWI, PLP, UPL, ARS, DEC,
			ETE, UCE, ET, AFT, PSC, CEC, TLW, TLR),
		FleetShare: 0.257, FailureShare: 0.085, TargetAFR: 0.0046,
	},
	MB1: {
		Model: MB1, Flash: MLC,
		Attrs: attrSet(RSC, POH, PCC, PFC, EFC, MWI, ARS, DEC, ETE, UCE,
			ET, AFT, PSC, CEC, TLW, TLR),
		FleetShare: 0.089, FailureShare: 0.157, TargetAFR: 0.0252,
	},
	MB2: {
		Model: MB2, Flash: MLC,
		Attrs: attrSet(RSC, POH, PCC, PFC, EFC, MWI, ARS, DEC, ETE, UCE,
			ET, AFT, PSC, CEC),
		FleetShare: 0.104, FailureShare: 0.060, TargetAFR: 0.0071,
	},
	MC1: {
		Model: MC1, Flash: TLC,
		Attrs: attrSet(RER, RSC, POH, PCC, PFC, EFC, MWI, UPL, ARS, DEC,
			ETE, UCE, CMDT, ET, AFT, REC, PSC, OCE, CEC),
		FleetShare: 0.404, FailureShare: 0.378, TargetAFR: 0.0329,
	},
	MC2: {
		Model: MC2, Flash: TLC,
		Attrs: attrSet(RER, RSC, POH, PCC, PFC, EFC, MWI, UPL, ARS, DEC,
			ETE, UCE, CMDT, ET, AFT, REC, PSC, OCE, CEC),
		FleetShare: 0.046, FailureShare: 0.112, TargetAFR: 0.0392,
	},
}

// SpecOf returns the specification for a drive model. The returned Spec
// shares the internal availability map; callers must treat it as
// read-only (use Features or HasAttr for queries).
func SpecOf(m ModelID) (Spec, error) {
	s, ok := specs[m]
	if !ok {
		return Spec{}, fmt.Errorf("%w: %v", ErrUnknownModel, m)
	}
	return s, nil
}

// MustSpec is SpecOf for callers with a known-valid model; it panics on
// an invalid ID, which indicates a programming error.
func MustSpec(m ModelID) Spec {
	s, err := SpecOf(m)
	if err != nil {
		panic(err)
	}
	return s
}

// HasAttr reports whether the model reports the given attribute.
func (s Spec) HasAttr(a AttrID) bool { return s.Attrs[a] }

// AttrList returns the model's available attributes in catalog order.
func (s Spec) AttrList() []AttrID {
	out := make([]AttrID, 0, len(s.Attrs))
	for a := range s.Attrs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Features returns the model's learning features — a raw and a
// normalized feature per available attribute — in catalog order.
func (s Spec) Features() []Feature {
	attrs := s.AttrList()
	out := make([]Feature, 0, 2*len(attrs))
	for _, a := range attrs {
		out = append(out, Feature{Attr: a, Kind: Raw}, Feature{Attr: a, Kind: Normalized})
	}
	return out
}

// FeatureNames returns Features rendered as strings ("RSC_R", "RSC_N", ...).
func (s Spec) FeatureNames() []string {
	fs := s.Features()
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}
