package meter

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DefaultPowercapRoot is the Linux powercap sysfs mount point.
const DefaultPowercapRoot = "/sys/class/powercap"

// RAPL reads Intel RAPL energy counters from the powercap sysfs tree: each
// package's energy plus the DRAM energy its package reports beside it.
// Reading energy_uj requires root or read permission on the powercap files
// (kernels ≥5.10 restrict it to root by default).
type RAPL struct {
	root    string
	domains []Domain
	paths   []string // energy_uj file per domain, parallel to domains
}

// NewRAPL discovers the RAPL zones to sum under root (pass
// DefaultPowercapRoot on real systems; tests point it at a fake tree),
// picking them by name so every joule counts once: each top-level
// package-N zone, plus its dram subzone, which package energy leaves out
// (domain dram-N after its package, so names stay unique). Never core or
// uncore (inside their package) or psys (a platform zone containing the
// packages); the intel-rapl-mmio:* mirror zones are skipped too.
func NewRAPL(root string) (*RAPL, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("rapl: reading %s: %w", root, err)
	}
	var zones []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "intel-rapl:") {
			zones = append(zones, e.Name())
		}
	}
	sort.Strings(zones) // each package before its subzones
	r := &RAPL{root: root}
	packages := map[string]string{} // zone index → package number
	for _, z := range zones {
		dir := filepath.Join(root, z)
		label, err := os.ReadFile(filepath.Join(dir, "name"))
		if err != nil {
			return nil, fmt.Errorf("rapl: %s has no name file: %w", z, err)
		}
		name := string(bytes.TrimSpace(label))
		pkg, sub, isSub := strings.Cut(strings.TrimPrefix(z, "intel-rapl:"), ":")
		num, isPkg := strings.CutPrefix(name, "package-")
		switch {
		case isPkg && !isSub:
			packages[pkg] = num
		case name == "dram" && isSub && !strings.Contains(sub, ":") && packages[pkg] != "":
			name = "dram-" + packages[pkg]
		default:
			continue // core, uncore, psys, or a zone this build does not sum
		}
		// The wrap modulus comes from sysfs rather than a hard-coded
		// constant: real parts differ (~262 kJ packages, smaller
		// subdomains). Some kernels/hypervisors omit the file entirely, so
		// a missing or malformed max_energy_range_uj degrades to 0 ("never
		// wraps") instead of failing discovery — DeltaPerDomain then reports an
		// explicit error only if a counter actually rolls over.
		maxRange, err := readCounterFile(filepath.Join(dir, "max_energy_range_uj"))
		if err != nil {
			maxRange = 0
		}
		energyPath := filepath.Join(dir, "energy_uj")
		if _, err := readCounterFile(energyPath); err != nil {
			return nil, fmt.Errorf("rapl: %s unreadable (need root or powercap read permission): %w", energyPath, err)
		}
		r.domains = append(r.domains, Domain{Name: name, MaxRangeMicroJ: maxRange})
		r.paths = append(r.paths, energyPath)
	}
	if len(r.domains) == 0 {
		return nil, fmt.Errorf("rapl: no intel-rapl package domains under %s", root)
	}
	return r, nil
}

func (r *RAPL) Name() string      { return "rapl" }
func (r *RAPL) Domains() []Domain { return r.domains }

func (r *RAPL) Read() (Reading, error) {
	rd := Reading{At: time.Now(), Counters: make([]uint64, len(r.paths))}
	for i, p := range r.paths {
		v, err := readCounterFile(p)
		if err != nil {
			return Reading{}, err
		}
		rd.Counters[i] = v
	}
	return rd, nil
}

func readCounterFile(path string) (uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parsing %s: %w", path, err)
	}
	return v, nil
}
