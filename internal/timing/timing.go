// Package timing provides a deterministic first-order timing model of a
// multicore with relaxed atomics and dmb-style fences. It substitutes for
// the paper's Figure 2 hardware platform (a Samsung Galaxy S7 / Exynos
// 8890): we cannot run on phone silicon, so we charge simulated cycles per
// operation and reproduce the figure's shape rather than its absolute
// numbers (see DESIGN.md §4).
//
// The model captures the three first-order effects Figure 2 depends on:
//
//   - memory contention: per-access cost scales with the number of active
//     cores (Contention(n) = 1 + Alpha·(n-1));
//   - fence serialization: a dmb flushes the pipeline — a cost proportional
//     to the contention-scaled access cost that is never hidden. This is
//     what keeps the "relaxed + fix" variant permanently slower than the
//     relaxed one (the paper measures 15.3% at 8 threads);
//   - store-buffer drain overlap: a dmb also waits for the store buffer to
//     drain, but that latency overlaps with the memory-contention stalls of
//     neighbouring instructions. With more cores there is more stall to
//     hide under, so the *exposed* drain cost shrinks — which is why the SC
//     variant converges to the fixed variant at 8 threads.
package timing

// Config holds the cost model. DefaultConfig is calibrated so the paper's
// Figure 2 shape holds (see the package test).
type Config struct {
	// LoadCost and StoreCost are base access costs in cycles.
	LoadCost, StoreCost float64
	// Alpha is the per-extra-core contention slope.
	Alpha float64
	// LoadFenceSerial is the pipeline-serialization cost of a dmb issued
	// after a load, in units of the contention factor.
	LoadFenceSerial float64
	// StoreFenceSerial is the (cheaper) serialization cost of a dmb
	// adjacent to a store.
	StoreFenceSerial float64
	// DrainUnit is the store-buffer drain latency per occupied entry.
	DrainUnit float64
	// HideFactor scales how much drain latency hides under contention
	// stalls: exposed = max(0, occ·DrainUnit − (c(n)−1)·HideFactor).
	HideFactor float64
	// BarrierCost is charged at each global barrier.
	BarrierCost float64
	// SBSize caps store-buffer occupancy.
	SBSize int
}

// DefaultConfig returns the calibrated cost model.
func DefaultConfig() Config {
	return Config{
		LoadCost:         10,
		StoreCost:        10,
		Alpha:            0.15,
		LoadFenceSerial:  2.3,
		StoreFenceSerial: 0.5,
		DrainUnit:        12,
		HideFactor:       12,
		BarrierCost:      30,
		SBSize:           8,
	}
}

// Machine is a simulated multicore. It is not safe for concurrent use; the
// sieve drives all cores from one goroutine (the concurrency being
// simulated, not real).
type Machine struct {
	cfg   Config
	n     int
	clock []float64
	sb    []int
}

// NewMachine returns a machine with n active cores.
func NewMachine(n int, cfg Config) *Machine {
	return &Machine{cfg: cfg, n: n, clock: make([]float64, n), sb: make([]int, n)}
}

// Contention returns the shared-memory slowdown factor for the current
// core count.
func (m *Machine) Contention() float64 { return 1 + m.cfg.Alpha*float64(m.n-1) }

// Load charges one shared-memory load on core c. Background store-buffer
// drain retires one entry per access.
func (m *Machine) Load(c int) {
	m.clock[c] += m.cfg.LoadCost * m.Contention()
	m.drainOne(c)
}

// Store charges one shared-memory store on core c; it occupies a
// store-buffer entry (stalling for a drain if the buffer is full).
func (m *Machine) Store(c int) {
	m.clock[c] += m.cfg.StoreCost * m.Contention()
	if m.sb[c] >= m.cfg.SBSize {
		m.clock[c] += m.cfg.DrainUnit
		m.sb[c]--
	}
	m.sb[c]++
}

func (m *Machine) drainOne(c int) {
	if m.sb[c] > 0 {
		m.sb[c]--
	}
}

// FenceAfterLoad charges a dmb issued after a load (ARM's load→load hazard
// fix): full pipeline serialization plus any exposed drain latency.
func (m *Machine) FenceAfterLoad(c int) {
	m.fence(c, m.cfg.LoadFenceSerial)
}

// FenceNearStore charges a dmb adjacent to a store (the SC-atomics
// recipe): cheaper serialization, same drain exposure.
func (m *Machine) FenceNearStore(c int) {
	m.fence(c, m.cfg.StoreFenceSerial)
}

func (m *Machine) fence(c int, serial float64) {
	cc := m.Contention()
	m.clock[c] += serial * cc
	drain := float64(m.sb[c]) * m.cfg.DrainUnit
	exposed := drain - (cc-1)*m.cfg.HideFactor
	if exposed > 0 {
		m.clock[c] += exposed
	}
	m.sb[c] = 0
}

// Local charges a non-memory (register/ALU) cycle on core c.
func (m *Machine) Local(c int, cycles float64) { m.clock[c] += cycles }

// Barrier synchronizes all cores: every clock advances to the maximum plus
// the barrier cost.
func (m *Machine) Barrier() {
	max := 0.0
	for _, t := range m.clock {
		if t > max {
			max = t
		}
	}
	max += m.cfg.BarrierCost * m.Contention()
	for i := range m.clock {
		m.clock[i] = max
	}
}

// Elapsed returns the simulated runtime: the maximum core clock.
func (m *Machine) Elapsed() float64 {
	max := 0.0
	for _, t := range m.clock {
		if t > max {
			max = t
		}
	}
	return max
}

// CoreClock returns core c's local clock (for load-imbalance diagnostics).
func (m *Machine) CoreClock(c int) float64 { return m.clock[c] }
