// Package simulate generates a synthetic SSD fleet standing in for the
// Alibaba production dataset the WEFR paper evaluates on (nearly 500 K
// SSDs over 24 months; the release is not bundled here). The simulator
// reproduces the dataset's *structures* rather than its bytes: six
// drive models with the attribute availability of Table I, fleet shares
// and annualized failure rates of Table II, per-model failure-signature
// attributes mirroring Table III, wear-out-dependent signal shifts
// (Table V), and the survival-vs-MWI_N curve shapes of Figure 1
// (including MC2's early-firmware failure bump).
//
// Drive trajectories are generated lazily and deterministically: the
// fleet stores only per-drive parameters, and Series regenerates a
// drive's full daily SMART log on demand from a per-drive seed, so a
// large fleet costs O(drives) memory rather than O(drives x days).
package simulate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/smart"
)

// Errors returned by the simulator.
var (
	// ErrBadConfig indicates an invalid fleet configuration.
	ErrBadConfig = errors.New("simulate: bad config")
)

// DefaultDays is the paper's observation span: 24 months of daily logs.
const DefaultDays = 730

// AgeWearFactor converts a drive's age at day 0 into pre-dataset wear
// days: drives were less busy before entering these data centers.
const AgeWearFactor = 0.25

// SuddenFailFraction is the share of defect failures that die with no
// SMART warning ramp; such failures are unpredictable and bound the
// achievable recall, as the paper's modest recall numbers reflect.
const SuddenFailFraction = 0.2

// ScareFraction is the share of surviving drives that emit one benign
// degradation-like burst episode, pressuring precision.
const ScareFraction = 0.15

// PredictionWindow is the look-ahead horizon in days: a sample is
// positive when the drive fails within this many days (Section II-B).
const PredictionWindow = 30

// Archetype classifies a drive's two-year fate.
type Archetype int

// Drive archetypes. Healthy drives survive the dataset; ScareHealthy
// drives survive but emit one benign error burst (false-positive
// fodder); the three failure archetypes differ in what drives the
// failure and therefore which attributes carry the signal.
const (
	Healthy Archetype = iota + 1
	ScareHealthy
	DefectFail
	WearFail
	FirmwareFail
)

// String returns a human-readable archetype name.
func (a Archetype) String() string {
	switch a {
	case Healthy:
		return "healthy"
	case ScareHealthy:
		return "scare-healthy"
	case DefectFail:
		return "defect-fail"
	case WearFail:
		return "wear-fail"
	case FirmwareFail:
		return "firmware-fail"
	default:
		return fmt.Sprintf("Archetype(%d)", int(a))
	}
}

// Failed reports whether the archetype ends in a failure.
func (a Archetype) Failed() bool {
	return a == DefectFail || a == WearFail || a == FirmwareFail
}

// Drive describes one simulated SSD. All trajectory randomness derives
// from seed, so a Drive value fully determines its SMART series.
type Drive struct {
	// ID is unique across the fleet.
	ID int
	// Model is the drive model.
	Model smart.ModelID
	// Archetype is the drive's fate.
	Archetype Archetype
	// FailDay is the day the failure ticket is filed, or -1 for
	// drives healthy through the end of the dataset.
	FailDay int
	// WearRate is the MWI_N decline in points/day.
	WearRate float64
	// AgeDays is the drive's age at day 0 (affects POH).
	AgeDays int
	// ReadHeavy marks a read-dominated workload (affects TLR).
	ReadHeavy bool
	// Sudden marks a defect failure with no degradation ramp: the
	// drive dies without SMART warning, capping achievable recall as
	// in real deployments.
	Sudden bool
	seed   int64
}

// Failed reports whether the drive fails within the dataset.
func (d Drive) Failed() bool { return d.FailDay >= 0 }

// Config parameterizes fleet construction.
type Config struct {
	// TotalDrives is the fleet size across all six models, allocated
	// per model by the Table II fleet shares (minimum 40 per model).
	// Must be positive.
	TotalDrives int
	// Days is the dataset span in days; 0 means DefaultDays (730).
	Days int
	// Seed makes the fleet (and every drive series) deterministic.
	Seed int64
	// Models restricts the fleet to the given models; empty means all
	// six.
	Models []smart.ModelID
	// AFRScale multiplies every model's target AFR (useful to densify
	// failures in small test fleets); 0 means 1.
	AFRScale float64
}

func (c Config) withDefaults() (Config, error) {
	if c.TotalDrives <= 0 {
		return c, fmt.Errorf("%w: TotalDrives = %d", ErrBadConfig, c.TotalDrives)
	}
	if c.Days == 0 {
		c.Days = DefaultDays
	}
	if c.Days < 90 {
		return c, fmt.Errorf("%w: Days = %d, need >= 90", ErrBadConfig, c.Days)
	}
	if len(c.Models) == 0 {
		c.Models = smart.AllModels()
	}
	for _, m := range c.Models {
		if !m.Valid() {
			return c, fmt.Errorf("%w: invalid model %v", ErrBadConfig, m)
		}
	}
	if c.AFRScale == 0 {
		c.AFRScale = 1
	}
	if c.AFRScale < 0 {
		return c, fmt.Errorf("%w: AFRScale = %v", ErrBadConfig, c.AFRScale)
	}
	return c, nil
}

// Fleet is a constructed drive population. Drive series are generated
// on demand with Series.
type Fleet struct {
	cfg     Config
	drives  []Drive
	byModel map[smart.ModelID][]int
}

// New constructs a fleet: it allocates drives to models by fleet share,
// draws each model's failure count from its target AFR, assigns failure
// archetypes per the model parameters, and derives per-drive seeds.
func New(cfg Config) (*Fleet, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Fleet{cfg: cfg, byModel: make(map[smart.ModelID][]int)}

	// Normalize shares over the selected models.
	var shareSum float64
	for _, m := range cfg.Models {
		shareSum += smart.MustSpec(m).FleetShare
	}

	id := 0
	for _, m := range cfg.Models {
		spec := smart.MustSpec(m)
		n := int(math.Round(float64(cfg.TotalDrives) * spec.FleetShare / shareSum))
		if n < 40 {
			n = 40
		}
		p := paramsOf[m]

		// Two-year failure count from the annualized failure rate:
		// AFR ~ f / (2n) for a 730-day span.
		years := float64(cfg.Days) / 365
		nFail := int(math.Round(float64(n) * spec.TargetAFR * years * cfg.AFRScale))
		if nFail < 2 {
			nFail = 2
		}
		if nFail > n/3 {
			nFail = n / 3
		}
		nWear := int(math.Round(float64(nFail) * p.wearFailFrac))
		nFirm := int(math.Round(float64(nFail) * p.firmFailFrac))
		nDefect := nFail - nWear - nFirm

		for k := 0; k < n; k++ {
			d := Drive{ID: id, Model: m, FailDay: -1, seed: rng.Int63()}
			// Age is drawn first: the wear trajectory starts from the
			// wear the drive accumulated before the dataset began
			// (AgeWearDays), so wear rates must account for it.
			failed := k < nFail
			d.AgeDays = rng.Intn(250)
			if p.oldAgeFailBias && failed {
				d.AgeDays = 350 + rng.Intn(400)
			}
			ageWear := float64(d.AgeDays) * AgeWearFactor

			// cappedWear caps non-wear-failing drives' wear so they end
			// the dataset above roughly healthyMinMWI; wear failures
			// alone populate the region below, carving the survival
			// drop at the change point.
			cappedWear := func() float64 {
				rate := lognormal(rng, p.wearRateMean, p.wearRateSigma)
				cap := (100 - p.healthyMinMWI) / (float64(cfg.Days-1) + ageWear)
				if rate > cap {
					rate = cap * (0.8 + 0.2*rng.Float64())
				}
				return rate
			}
			switch {
			case k < nDefect:
				d.Archetype = DefectFail
				d.FailDay = 45 + rng.Intn(cfg.Days-45)
				d.WearRate = cappedWear()
				d.Sudden = rng.Float64() < SuddenFailFraction
			case k < nDefect+nWear:
				d.Archetype = WearFail
				// Pick the MWI level the drive fails at (below the
				// model's change point) and a fail day in the second
				// half, then derive the wear rate that gets it there.
				target := p.wearTargetLo + rng.Float64()*(p.wearTargetHi-p.wearTargetLo)
				d.FailDay = cfg.Days/2 + rng.Intn(cfg.Days/2)
				d.WearRate = (100 - target) / (float64(d.FailDay) + ageWear)
			case k < nFail:
				d.Archetype = FirmwareFail
				// Early-life failures on old firmware: first ~10
				// months, at still-high MWI (the Fig 1 MC2 bump),
				// and never after the span ends.
				d.FailDay = 30 + rng.Intn(min(270, cfg.Days-30))
				d.WearRate = cappedWear()
			default:
				if rng.Float64() < ScareFraction {
					d.Archetype = ScareHealthy
				} else {
					d.Archetype = Healthy
				}
				d.WearRate = cappedWear()
			}
			if p.readHeavyFailBias && d.Archetype.Failed() {
				d.ReadHeavy = true
			} else {
				d.ReadHeavy = rng.Float64() < 0.2
			}
			f.byModel[m] = append(f.byModel[m], id)
			f.drives = append(f.drives, d)
			id++
		}
		// Shuffle within the model so archetypes are not clustered by ID.
		idxs := f.byModel[m]
		rng.Shuffle(len(idxs), func(a, b int) {
			f.drives[idxs[a]], f.drives[idxs[b]] = f.drives[idxs[b]], f.drives[idxs[a]]
			f.drives[idxs[a]].ID, f.drives[idxs[b]].ID = idxs[a], idxs[b]
		})
	}
	return f, nil
}

// Days returns the dataset span in days.
func (f *Fleet) Days() int { return f.cfg.Days }

// Models returns the models present in the fleet.
func (f *Fleet) Models() []smart.ModelID { return f.cfg.Models }

// NumDrives returns the total drive count.
func (f *Fleet) NumDrives() int { return len(f.drives) }

// Drive returns the drive with the given ID.
func (f *Fleet) Drive(id int) (Drive, error) {
	if id < 0 || id >= len(f.drives) {
		return Drive{}, fmt.Errorf("simulate: drive %d out of range [0, %d)", id, len(f.drives))
	}
	return f.drives[id], nil
}

// DrivesOf returns the drives of one model. The returned slice is
// freshly allocated.
func (f *Fleet) DrivesOf(m smart.ModelID) []Drive {
	idxs := f.byModel[m]
	out := make([]Drive, len(idxs))
	for i, id := range idxs {
		out[i] = f.drives[id]
	}
	return out
}

// Failures returns the failed drives of one model, sorted by fail day.
func (f *Fleet) Failures(m smart.ModelID) []Drive {
	var out []Drive
	for _, id := range f.byModel[m] {
		if f.drives[id].Failed() {
			out = append(out, f.drives[id])
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].FailDay < out[j-1].FailDay; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// AFR computes the realized annualized failure rate of one model:
// failures * 365 / total drive-days, as defined in Section II-A.
func (f *Fleet) AFR(m smart.ModelID) float64 {
	var fails int
	var driveDays int
	for _, id := range f.byModel[m] {
		d := f.drives[id]
		if d.Failed() {
			fails++
			driveDays += d.FailDay + 1
		} else {
			driveDays += f.cfg.Days
		}
	}
	if driveDays == 0 {
		return 0
	}
	return float64(fails) * 365 / float64(driveDays)
}

// lognormal draws a lognormal value with the given median and sigma of
// the underlying normal.
func lognormal(rng *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(rng.NormFloat64()*sigma)
}
