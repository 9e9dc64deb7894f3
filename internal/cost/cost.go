// Package cost implements the pricing model of the paper's Table 2
// (IBM Cloud, us-east, April 2021) and the cost accounting used in the
// evaluation (§6.1, "Cost computation"):
//
//   - VM instances are priced hourly but, conservatively, prorated per
//     second — this favors the serverful baseline exactly as in the paper.
//   - Cloud functions are billed per GB-second of execution; the paper's
//     2 GB workers cost 3.4e-5 $/s.
//   - Object storage cost for the mini-batch traffic is excluded because
//     it is equivalent across all systems. Request traffic of the tree
//     exchange strategy (internal/exchange) is the exception: it is
//     what differs across strategies, so it is billed per request at
//     COS class rates.
//
// MLLess job cost = FaaS workers + supervisor function + the messaging VM
// (C1.4x4) + the Redis VM (M1.2x16). PyTorch job cost = the rented B1.4x8
// VMs. PyWren job cost = its function workers.
package cost

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Prices from Table 2.
const (
	// PriceC14x4PerHour is the C1.4x4 instance (4 vCPU, 4 GB RAM) that
	// hosts the MLLess messaging service.
	PriceC14x4PerHour = 0.15
	// PriceM12x16PerHour is the M1.2x16 instance (2 vCPU, 16 GB RAM)
	// that hosts Redis.
	PriceM12x16PerHour = 0.17
	// PriceB14x8PerHour is the B1.4x8 instance (4 vCPU, 8 GB RAM) used
	// as a PyTorch worker.
	PriceB14x8PerHour = 0.20
	// PriceFunctionPerGBSecond prices cloud-function execution. A 2 GB
	// function costs 3.4e-5 $/s (0.122 $/hour), per Table 2.
	PriceFunctionPerGBSecond = 1.7e-5
	// PriceCOSClassARequest prices object-storage mutating requests
	// (PUT, LIST); PriceCOSClassBRequest prices retrievals (GET).
	// DELETE is free. IBM COS standard-tier us-east rates of the paper's
	// pricing snapshot: $5.20 and $0.40 per 10k requests.
	PriceCOSClassARequest = 5.2e-6
	PriceCOSClassBRequest = 4e-7
)

// VMCost prorates an hourly VM price over duration d, per second.
func VMCost(hourlyPrice float64, d time.Duration) float64 {
	return hourlyPrice / 3600 * d.Seconds()
}

// FunctionCost returns the cost of running one cloud function with
// memGiB gigabytes of memory for duration d.
func FunctionCost(d time.Duration, memGiB float64) float64 {
	return PriceFunctionPerGBSecond * memGiB * d.Seconds()
}

// PerfPerDollar is the composite metric of §6.2: 1/(execTime · price).
// Higher is better; it rewards improvements in latency, cost, or both.
// It returns 0 when either input is non-positive.
func PerfPerDollar(execTime time.Duration, dollars float64) float64 {
	if execTime <= 0 || dollars <= 0 {
		return 0
	}
	return 1 / (execTime.Seconds() * dollars)
}

// Component is one billed element of a job.
type Component struct {
	// Name identifies the element, e.g. "worker-3" or "redis-vm".
	Name string
	// Kind is "function", "vm", "requests" or "memo". Memo components are
	// informational lines whose dollars are already contained in other
	// components; they are excluded from totals.
	Kind string
	// Duration is the billed time.
	Duration time.Duration
	// Dollars is the resulting charge.
	Dollars float64
}

// Meter accumulates the billed components of a job. The zero value is
// ready to use. Meter is safe for concurrent use.
type Meter struct {
	mu         sync.Mutex
	components []Component
}

// AddFunction bills a cloud-function execution.
func (m *Meter) AddFunction(name string, d time.Duration, memGiB float64) {
	m.add(Component{Name: name, Kind: "function", Duration: d, Dollars: FunctionCost(d, memGiB)})
}

// AddVM bills a VM rental prorated per second.
func (m *Meter) AddVM(name string, hourlyPrice float64, d time.Duration) {
	m.add(Component{Name: name, Kind: "vm", Duration: d, Dollars: VMCost(hourlyPrice, d)})
}

// AddRequests bills n storage requests at a per-request price. The
// duration stays zero: request charges buy operations, not time.
func (m *Meter) AddRequests(name string, n int64, perRequest float64) {
	m.add(Component{Name: name, Kind: "requests", Dollars: float64(n) * perRequest})
}

// AddMemo records an informational line — e.g. the engine's fault
// recovery overhead — whose dollars are already part of other
// components. Memo lines appear in the report but never in the total,
// so they cannot double-count.
func (m *Meter) AddMemo(name string, d time.Duration, dollars float64) {
	m.add(Component{Name: name, Kind: "memo", Duration: d, Dollars: dollars})
}

func (m *Meter) add(c Component) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.components = append(m.components, c)
}

// Report returns the components sorted by name plus the total.
func (m *Meter) Report() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	comps := make([]Component, len(m.components))
	copy(comps, m.components)
	sort.Slice(comps, func(i, j int) bool { return comps[i].Name < comps[j].Name })
	total := 0.0
	for _, c := range comps {
		if c.Kind == "memo" {
			continue
		}
		total += c.Dollars
	}
	return Report{Components: comps, Total: total}
}

// Report is an itemized bill.
type Report struct {
	Components []Component
	Total      float64
}

// String renders the bill as a fixed-width table.
func (r Report) String() string {
	var sb strings.Builder
	for _, c := range r.Components {
		fmt.Fprintf(&sb, "%-24s %-8s %12s  $%.6f\n", c.Name, c.Kind, c.Duration.Round(time.Millisecond), c.Dollars)
	}
	fmt.Fprintf(&sb, "%-24s %-8s %12s  $%.6f\n", "TOTAL", "", "", r.Total)
	return sb.String()
}
