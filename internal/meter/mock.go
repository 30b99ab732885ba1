package meter

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// LoadAware is the optional EnergyMeter extension for meters that model
// power as a function of the current workload activity. The executor calls
// SetLoad with the trial's nominal activity vector (component → active
// thread count) before its repetitions start, so a modeled mock draws
// configuration-dependent power — the planted linear model adaptive-planner
// tests and CI smokes fit against. Real meters measure instead of model and
// simply don't implement it.
type LoadAware interface {
	SetLoad(load map[string]float64)
}

// MockStep is one boundary of a piecewise-constant mock power schedule: from
// AtS seconds after the meter's epoch onward, the meter draws Watts.
type MockStep struct {
	AtS   float64
	Watts float64
}

// Mock is a deterministic EnergyMeter for tests and CI machines without RAPL
// access. It models a single domain drawing a constant PowerWatts, so energy
// is exactly power × elapsed time. An optional Steps schedule switches the
// draw at fixed offsets from the epoch, planting multi-phase workloads for
// time-resolved sampling tests. The clock is injectable for fully
// deterministic tests, and MaxRangeMicroJ can be set low to exercise the
// wraparound path in DeltaPerDomain.
type Mock struct {
	PowerWatts     float64
	MaxRangeMicroJ uint64
	Steps          []MockStep // sorted by AtS; before Steps[0].AtS the draw is PowerWatts

	// ModelW, when non-nil, plants a linear power model: the draw becomes
	// PowerWatts + Σ_c ModelW[c]·load_c (+ a deterministic NoiseW-amplitude
	// perturbation per distinct load vector), with the load vector supplied
	// through SetLoad. Planted models take precedence over Steps.
	ModelW map[string]float64
	// NoiseW is the amplitude of the per-configuration pseudo-noise added
	// to a modeled draw: a hash of the load vector mapped into [-NoiseW,
	// +NoiseW], so repeated measurements of one configuration agree exactly
	// while the fit across configurations sees residual scatter.
	NoiseW float64

	mu    sync.Mutex
	now   func() time.Time
	epoch time.Time
	// Modeled-power integration state: energy accumulated through completed
	// load segments, the elapsed offset the current segment started at, and
	// the current total draw.
	accumJ    float64
	segStartS float64
	loadW     float64
}

// NewMock returns a mock meter drawing powerWatts with a realistic 32-bit-ish
// counter range (matching RAPL's ~262 kJ package range).
func NewMock(powerWatts float64) *Mock {
	return &Mock{PowerWatts: powerWatts, MaxRangeMicroJ: 262_143_328_850, now: time.Now}
}

// NewMockWithClock returns a mock meter driven by an explicit clock, for
// deterministic tests (including counter-wraparound tests via a small
// maxRange).
func NewMockWithClock(powerWatts float64, maxRangeMicroJ uint64, clock func() time.Time) *Mock {
	m := &Mock{PowerWatts: powerWatts, MaxRangeMicroJ: maxRangeMicroJ, now: clock}
	m.epoch = clock()
	return m
}

func (m *Mock) Name() string { return "mock" }

func (m *Mock) Domains() []Domain {
	return []Domain{{Name: "mock-package-0", MaxRangeMicroJ: m.MaxRangeMicroJ}}
}

func (m *Mock) Read() (Reading, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.now()
	if m.epoch.IsZero() {
		m.epoch = t
	}
	elapsed := t.Sub(m.epoch).Seconds()
	joules := m.energyJoules(elapsed)
	if m.ModelW != nil {
		joules = m.accumJ + (m.PowerWatts+m.loadW)*(elapsed-m.segStartS)
	}
	microJ := uint64(joules * 1e6)
	if m.MaxRangeMicroJ > 0 {
		microJ %= m.MaxRangeMicroJ
	}
	return Reading{At: t, Counters: []uint64{microJ}}, nil
}

// SetLoad switches the modeled draw to the given activity vector, closing
// the previous load segment's energy integral first so readings across the
// transition stay exact. A mock without a planted model ignores it.
func (m *Mock) SetLoad(load map[string]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ModelW == nil {
		return
	}
	t := m.now()
	if m.epoch.IsZero() {
		m.epoch = t
	}
	elapsed := t.Sub(m.epoch).Seconds()
	m.accumJ += (m.PowerWatts + m.loadW) * (elapsed - m.segStartS)
	m.segStartS = elapsed
	m.loadW = m.modelWatts(load)
}

// modelWatts evaluates the planted model on a load vector: the linear term
// plus the configuration's deterministic noise.
func (m *Mock) modelWatts(load map[string]float64) float64 {
	if len(load) == 0 {
		return 0
	}
	keys := make([]string, 0, len(load))
	for c := range load {
		keys = append(keys, c)
	}
	sort.Strings(keys)
	var w float64
	h := fnv.New64a()
	for _, c := range keys {
		w += m.ModelW[c] * load[c]
		fmt.Fprintf(h, "%s=%g|", c, load[c])
	}
	if m.NoiseW > 0 {
		// Map the 64-bit hash uniformly into [-1, 1]: the same load vector
		// always lands on the same perturbation, so a configuration's
		// repeated measurements agree while the cross-configuration
		// residuals give the fit a nonzero variance to estimate.
		u := float64(h.Sum64()) / float64(^uint64(0)) // [0, 1]
		w += (2*u - 1) * m.NoiseW
	}
	return w
}

// ValidateMock checks the mock meter's parameters, the one rule set campaign
// files, the run flags, worker children and fleet batches share: the draw
// is positive and finite, the planted model parses, and a noise amplitude
// is non-negative, finite, and only rides on a planted model.
func ValidateMock(watts float64, model string, noiseW float64) error {
	if !(watts > 0) || math.IsInf(watts, 1) {
		return fmt.Errorf("mock_watts must be positive and finite, got %v", watts)
	}
	planted, err := ParseMockModel(model)
	if err != nil {
		return err
	}
	if noiseW != 0 && planted == nil {
		return fmt.Errorf("mock_noise_w requires mock_model")
	}
	if !nonNegativeFinite(noiseW) {
		return fmt.Errorf("mock_noise_w must be non-negative and finite, got %v", noiseW)
	}
	return nil
}

// nonNegativeFinite rejects NaN, infinities and negative values, none of
// which a mock draw can integrate into a meaningful energy.
func nonNegativeFinite(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// ParseMockModel decodes the 'component:watts,...' planted-model syntax
// shared by the --mock-model flag and the campaign mock_model key. Every
// coefficient is non-negative and finite.
func ParseMockModel(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	model := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		comp, wattsStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("mock model: term %q is not of the form component:watts", part)
		}
		comp = strings.TrimSpace(comp)
		watts, err := strconv.ParseFloat(strings.TrimSpace(wattsStr), 64)
		if err != nil {
			return nil, fmt.Errorf("mock model: bad watts in %q: %w", part, err)
		}
		if !nonNegativeFinite(watts) {
			return nil, fmt.Errorf("mock model: watts in %q must be non-negative and finite", part)
		}
		if comp == "" {
			return nil, fmt.Errorf("mock model: term %q has an empty component name", part)
		}
		if _, dup := model[comp]; dup {
			return nil, fmt.Errorf("mock model: component %q appears twice", comp)
		}
		model[comp] = watts
	}
	return model, nil
}

// ParseMockSchedule decodes the --mock-schedule 'atS:watts,...' syntax into
// schedule steps. Offsets and watts are non-negative and finite, and
// offsets strictly increase, so the piecewise integral is well defined.
func ParseMockSchedule(s string) ([]MockStep, error) {
	if s == "" {
		return nil, nil
	}
	var steps []MockStep
	for _, part := range strings.Split(s, ",") {
		atStr, wattsStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("mock schedule: step %q is not of the form atS:watts", part)
		}
		at, err := strconv.ParseFloat(atStr, 64)
		if err != nil {
			return nil, fmt.Errorf("mock schedule: bad offset in %q: %w", part, err)
		}
		watts, err := strconv.ParseFloat(wattsStr, 64)
		if err != nil {
			return nil, fmt.Errorf("mock schedule: bad watts in %q: %w", part, err)
		}
		if !nonNegativeFinite(at) || !nonNegativeFinite(watts) {
			return nil, fmt.Errorf("mock schedule: step %q must have non-negative, finite offset and watts", part)
		}
		if len(steps) > 0 && at <= steps[len(steps)-1].AtS {
			return nil, fmt.Errorf("mock schedule: offsets must be strictly increasing, got %g after %g", at, steps[len(steps)-1].AtS)
		}
		steps = append(steps, MockStep{AtS: at, Watts: watts})
	}
	return steps, nil
}

// energyJoules integrates the (piecewise-constant) power draw over the first
// elapsed seconds since the epoch.
func (m *Mock) energyJoules(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	var joules float64
	prevT, watts := 0.0, m.PowerWatts
	for _, st := range m.Steps {
		if elapsed <= st.AtS {
			break
		}
		if st.AtS > prevT {
			joules += watts * (st.AtS - prevT)
			prevT = st.AtS
		}
		watts = st.Watts
	}
	return joules + watts*(elapsed-prevT)
}
