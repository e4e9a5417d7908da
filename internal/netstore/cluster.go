package netstore

import (
	"fmt"
	"net"
	"path/filepath"

	"knnpc/internal/disk"
)

// Cluster bundles N loopback server shards started in one process —
// the zero-configuration way to run the network store: benchmarks, tests
// and `knnrun -netstore shards=N` all go through it, and
// because the client speaks the same TCP protocol either way, swapping
// the loopback cluster for `cmd/statestore` processes on real machines
// changes nothing above the dial.
type Cluster struct {
	servers []*Server
	addrs   []string
}

// StartCluster launches shards loopback servers over numPartitions
// partitions. A non-nil model gives every shard its own emulated
// spindle (named "shard0", "shard1", ...) — the per-shard devices are
// what moves the single-spindle queueing ceiling.
func StartCluster(shards, numPartitions int, model *disk.Model) (*Cluster, error) {
	addrs := make([]string, shards)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return StartClusterOpts(addrs, numPartitions, model, ClusterOptions{})
}

// ClusterOptions carries the robustness knobs an externally managed
// deployment layers onto a cluster; the zero value adds none.
type ClusterOptions struct {
	// FirstShard is the cluster-wide index of the first listed address,
	// and TotalShards the cluster-wide shard count — set both when this
	// process hosts a slice of a larger cluster (cmd/statestore -shard/
	// -shards), so partition ranges land where the client expects. Zero
	// TotalShards means the address list is the whole cluster.
	FirstShard  int
	TotalShards int
	// DataDir, when non-empty, makes every shard durable, each under
	// its own subdirectory "shard<i>" (cluster-wide index, so a
	// restarted slice finds its own state).
	DataDir string
	// WrapListener, when non-nil, wraps each shard's listener — the
	// fault-injection seam (shard is the cluster-wide index).
	WrapListener func(shard int, ln net.Listener) net.Listener
	// DiskHook, when non-nil, installs a fault hook on each shard's
	// emulated device (ignored without a device model).
	DiskHook func(shard int) disk.FaultHook
}

// StartClusterOpts launches one server per listen address — addrs[i]
// becomes shard FirstShard+i — so externally addressed deployments like
// cmd/statestore share the loopback cluster's shard construction
// (device naming, range assignment, failure cleanup), plus whatever
// ClusterOptions adds: durability directories, fault-wrapped listeners,
// device fault hooks, and multi-process shard indexing.
func StartClusterOpts(addrs []string, numPartitions int, model *disk.Model, opts ClusterOptions) (*Cluster, error) {
	total := opts.TotalShards
	if total == 0 {
		total = len(addrs)
	}
	if opts.FirstShard < 0 || opts.FirstShard+len(addrs) > total {
		return nil, fmt.Errorf("netstore: shards [%d,%d) outside cluster of %d", opts.FirstShard, opts.FirstShard+len(addrs), total)
	}
	c := &Cluster{}
	for i, addr := range addrs {
		shard := opts.FirstShard + i
		var dev *disk.Device
		if model != nil {
			dev = disk.NewNamedDevice(*model, fmt.Sprintf("shard%d", shard))
			if opts.DiskHook != nil {
				dev.SetFaultHook(opts.DiskHook(shard))
			}
		}
		cfg := ServerConfig{
			Addr:          addr,
			Shard:         shard,
			Shards:        total,
			NumPartitions: numPartitions,
			Device:        dev,
		}
		if opts.DataDir != "" {
			cfg.DataDir = filepath.Join(opts.DataDir, fmt.Sprintf("shard%d", shard))
		}
		if opts.WrapListener != nil {
			cfg.WrapListener = func(ln net.Listener) net.Listener { return opts.WrapListener(shard, ln) }
		}
		srv, err := NewServer(cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		c.addrs = append(c.addrs, srv.Addr())
	}
	return c, nil
}

// Addrs reports the shard addresses in shard order — exactly what
// Dial expects.
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// Servers reports the live shard servers in shard order.
func (c *Cluster) Servers() []*Server { return append([]*Server(nil), c.servers...) }

// Devices reports each shard's emulated spindle in shard order (nil
// entries without emulation) so callers can register them for
// per-shard IOStats accounting.
func (c *Cluster) Devices() []*disk.Device {
	out := make([]*disk.Device, len(c.servers))
	for i, s := range c.servers {
		out[i] = s.Device()
	}
	return out
}

// Close stops every shard.
func (c *Cluster) Close() error {
	var firstErr error
	for _, s := range c.servers {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
