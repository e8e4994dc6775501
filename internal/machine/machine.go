// Package machine models the parallel platforms of the paper — the IBM
// Blue Gene/Q (Mira, §4.1) and a dual Intel Xeon E5-2665 node (§5.4) —
// and the communication fabric of the LDC-DFT decomposition: a reduction
// tree for the global density (Fig. 3, blue lines), nearest-neighbour
// torus exchanges for the ρα halos, and intra-communicator all-to-alls
// for the band↔space transposes (§3.3).
//
// The model is used to extrapolate at-scale behaviour (Figs. 5–6, Tables
// 1–2) from per-domain compute costs measured on the real Go solver; see
// DESIGN.md's substitution table.
package machine

import "math"

// Machine describes one platform.
type Machine struct {
	CoresPerNode   int
	ThreadsPerCore int
	NodePeakGF     float64 // peak GFLOP/s per node
	LinkGBs        float64 // bandwidth per network link (GB/s, each direction)
	LinksPerNode   int
	HopLatency     float64 // seconds per message hop
	TorusDims      int     // 5 for BG/Q
	RacksMax       int
	NodesPerRack   int

	// ThreadEff[t] is the fraction of a core's dual-issue peak attained
	// with t threads per core (Table 1 behaviour: 1 thread cannot fill
	// both pipes; 4 threads hide latency unless bandwidth-bound).
	ThreadEff map[int]float64

	// KernelEff is the fraction of peak the tuned LDC-DFT kernels reach
	// at full threading (§5.3 measures 50.5–54% on BG/Q, §5.4 55% on
	// Xeon).
	KernelEff float64
}

// CorePeakGF returns the peak GFLOP/s of one core.
func (m *Machine) CorePeakGF() float64 { return m.NodePeakGF / float64(m.CoresPerNode) }

// PeakGF returns the peak GFLOP/s of P cores.
func (m *Machine) PeakGF(cores int) float64 { return m.CorePeakGF() * float64(cores) }

// BlueGeneQ returns the Mira model of §4.1: 48 racks × 1,024 nodes ×
// 16 cores at 1.6 GHz, 204.8 GFLOP/s per node, 11 links × 2 GB/s, 5-D
// torus.
func BlueGeneQ() *Machine {
	return &Machine{
		CoresPerNode:   16,
		ThreadsPerCore: 4,
		NodePeakGF:     204.8,
		LinkGBs:        2.0,
		LinksPerNode:   10,
		HopLatency:     1.5e-6,
		TorusDims:      5,
		RacksMax:       48,
		NodesPerRack:   1024,
		// Calibrated to Table 1: 1 thread ≈ 25–29%, 2 ≈ 31–42%,
		// 4 ≈ 46–54% of peak.
		ThreadEff: map[int]float64{1: 0.27, 2: 0.37, 4: 0.51},
		KernelEff: 0.55,
	}
}

// XeonE5 returns the dual Intel Xeon E5-2665 node of §5.4 (Sandy
// Bridge-EP, 8 cores + HT per socket, turbo-boosted peak 198 GF per chip).
func XeonE5() *Machine {
	return &Machine{
		CoresPerNode:   16,
		ThreadsPerCore: 2,
		NodePeakGF:     396,
		LinkGBs:        14.9, // memory-channel bound single-node model
		LinksPerNode:   1,
		HopLatency:     5e-7,
		TorusDims:      1,
		RacksMax:       1,
		NodesPerRack:   1,
		ThreadEff:      map[int]float64{1: 0.33, 2: 0.55},
		KernelEff:      0.55,
	}
}

// Comm is a communicator cost model over a contiguous group of cores —
// the analog of the per-domain MPI communicators created with
// MPI_COMM_SPLIT (§3.3).
type Comm struct {
	M     *Machine
	Cores int
}

// NewComm returns the world communicator over the given core count.
func NewComm(m *Machine, cores int) *Comm { return &Comm{M: m, Cores: cores} }

// Split partitions the communicator into equal groups and returns the
// per-group communicator.
func (c *Comm) Split(groups int) *Comm {
	if groups < 1 {
		groups = 1
	}
	sz := c.Cores / groups
	if sz < 1 {
		sz = 1
	}
	return &Comm{M: c.M, Cores: sz}
}

// nodes returns the node count spanned by the communicator.
func (c *Comm) nodes() float64 {
	n := float64(c.Cores) / float64(c.M.CoresPerNode)
	if n < 1 {
		return 1
	}
	return n
}

// AllReduceTime models a tree allreduce of the given payload: 2·log2(n)
// hops, each transferring the payload at link bandwidth. The tree
// network's per-level volume is constant here (density reduction sends
// the full field), so the payload term dominates at scale — this is why
// the algorithm abstracts global information into ONE density field
// rather than O(N) wave functions (§5.1, §7).
func (c *Comm) AllReduceTime(bytes int64) float64 {
	n := c.nodes()
	if n <= 1 {
		return 0
	}
	levels := math.Ceil(math.Log2(n))
	bw := c.M.LinkGBs * 1e9
	return 2 * levels * (c.M.HopLatency + float64(bytes)/bw)
}

// ReduceScatterTime models the multigrid-style reduction in which the
// volume halves at each tree level (Fig. 3): total volume transferred is
// ≈ 2× the payload regardless of depth.
func (c *Comm) ReduceScatterTime(bytes int64) float64 {
	n := c.nodes()
	if n <= 1 {
		return 0
	}
	levels := math.Ceil(math.Log2(n))
	bw := c.M.LinkGBs * 1e9
	return levels*c.M.HopLatency + 2*float64(bytes)/bw
}

// HaloExchangeTime models the nearest-neighbour exchange of domain
// buffer densities: 2·TorusDims simultaneous neighbour messages over the
// node's links.
func (c *Comm) HaloExchangeTime(bytesPerNeighbor int64) float64 {
	links := float64(c.M.LinksPerNode)
	neighbors := float64(2 * c.M.TorusDims)
	parallel := links
	if parallel > neighbors {
		parallel = neighbors
	}
	bw := c.M.LinkGBs * 1e9
	return c.M.HopLatency + neighbors/parallel*float64(bytesPerNeighbor)/bw
}

// AllToAllTime models the intra-communicator all-to-all used to switch
// between band and space decompositions (§3.3): each of n nodes sends
// (n−1)/n of its payload through its links.
func (c *Comm) AllToAllTime(totalBytesPerRank int64) float64 {
	n := c.nodes()
	if n <= 1 {
		return 0
	}
	bw := c.M.LinkGBs * 1e9 * float64(c.M.LinksPerNode)
	vol := float64(totalBytesPerRank) * (n - 1) / n
	return math.Log2(n)*c.M.HopLatency + vol/bw
}
