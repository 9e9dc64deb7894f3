// Package core implements the MLLess training system itself (§3): the
// driver, the serverless supervisor, the data-parallel FaaS workers, and
// the BSP/ISP step engine that coordinates them over the simulated cloud
// substrates. The engine runs the actual ML mathematics (real gradients,
// real convergence) while charging virtual time for compute and for every
// trip through the indirect-communication services, and bills every
// component per the paper's cost model (§6.1).
package core

import (
	"sync"

	"mlless/internal/faas"
	"mlless/internal/kvstore"
	"mlless/internal/msgqueue"
	"mlless/internal/netmodel"
	"mlless/internal/objstore"
	"mlless/internal/trace"
)

// ComputeModel converts floating-point work into virtual compute time.
type ComputeModel struct {
	// FlopsPerSecond is the effective sparse-operation throughput of one
	// vCPU running the Cython-compiled MLLess kernels (§5), including
	// the (de)serialization work that dominates update exchange. The
	// default is calibrated so per-step durations land in the range the
	// paper measures (Fig 2a: ≈0.4–1.2 steps/s for PMF); see
	// EXPERIMENTS.md for the calibration notes.
	FlopsPerSecond float64
}

// DefaultComputeModel returns the calibrated single-vCPU throughput.
func DefaultComputeModel() ComputeModel {
	return ComputeModel{FlopsPerSecond: 8e6}
}

// Cluster bundles the simulated cloud deployment of §6.1: a Redis VM
// (M1.2x16), a messaging VM (C1.4x4), the object storage service and the
// FaaS platform. One Cluster can run many jobs sequentially; services
// accumulate traffic metrics across them.
type Cluster struct {
	// Redis is the low-latency KV store workers exchange updates
	// through: one endpoint on one M1.2x16 VM.
	Redis *kvstore.Store
	// COS is the object store holding dataset mini-batches.
	COS *objstore.Store
	// Broker is the control-plane messaging service.
	Broker *msgqueue.Broker
	// Platform is the FaaS provider running workers and the supervisor.
	Platform *faas.Platform
	// Compute converts flops to virtual seconds.
	Compute ComputeModel
	// Metrics is the unified registry every service's counters live in
	// ("kv.*", "obj.*", "mq.*", "faas.*"); one snapshot covers the whole
	// deployment.
	Metrics *trace.Registry

	mu    sync.Mutex
	jobID int
}

// NewCluster builds a cluster with the default link parameters and
// FaaS configuration. All services share one metrics registry
// (Metrics).
func NewCluster() *Cluster {
	reg := trace.NewRegistry()
	return &Cluster{
		Redis:    kvstore.NewWithRegistry(netmodel.RedisLink(), reg),
		COS:      objstore.NewWithRegistry(netmodel.COSLink(), reg),
		Broker:   msgqueue.NewWithRegistry(netmodel.BrokerLink(), reg),
		Platform: faas.NewPlatformWithRegistry(faas.DefaultConfig(), reg),
		Compute:  DefaultComputeModel(),
		Metrics:  reg,
	}
}

// nextJobID allocates a unique namespace prefix for a job's keys and
// queues: "jobN" standalone, "<tenant>/jobN" for a tenant's job. The
// counter is cluster-wide, so jobs of different tenants sharing one
// substrate can never collide on a key, queue, bucket or billing label
// (jobNamespace documents the scheme).
func (c *Cluster) nextJobID(tenant string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jobID++
	return jobNamespace(tenant, c.jobID)
}

// ReserveJobIDs advances the cluster-wide job counter by n and returns
// the first reserved number (numbers are 1-based: the first Run on a
// fresh cluster gets job 1). The fleet scheduler reserves its whole
// trace up front and assigns numbers in admission order, so forked
// executions land on exactly the namespaces a host-serial run would
// have allocated (DESIGN.md §15). Use RunNumbered to run a job under a
// reserved number.
func (c *Cluster) ReserveJobIDs(n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	first := c.jobID + 1
	c.jobID += n
	return first
}

// JobNamespace returns the key/queue/billing namespace prefix a job
// numbered num under tenant would use: "jobN" standalone,
// "<tenant>/jobN" for a tenant's job.
func JobNamespace(tenant string, num int) string { return jobNamespace(tenant, num) }
