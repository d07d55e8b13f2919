// Package extnet models the external-memory network's topology explicitly
// (paper §II-B2): point-to-point SerDes chains of memory modules per
// interface, with the paper's "optional links (not shown) ... used to
// cross-connect chains for redundancy purposes, which allow access to
// memory devices in the event of link failures." It computes reachability
// and deliverable bandwidth under link failures, quantifying what those
// optional cross-links buy.
package extnet

import (
	"errors"
	"math"

	"ena/internal/arch"
)

// node ids: 0 is the EHP root; modules are numbered row-major by (chain,
// hop).
type link struct {
	a, b   int
	gbps   float64
	failed bool
	cross  bool
}

// Network is the external-memory graph.
type Network struct {
	chains  int
	perCh   int
	caps    []float64 // per-module capacity, GB
	links   []link
	adj     [][]int // node -> link indices
	rootBW  float64
	nodeCnt int
}

// ErrShape reports an unsupported configuration.
var ErrShape = errors.New("extnet: need uniform, non-empty chains")

// Build constructs the network from a node configuration. When crossLinks
// is set, the last module of each chain connects to the last module of the
// next chain (a redundancy ring over the chain tails).
func Build(cfg *arch.NodeConfig, crossLinks bool) (*Network, error) {
	nCh := len(cfg.Ext)
	if nCh == 0 || len(cfg.Ext[0].Modules) == 0 {
		return nil, ErrShape
	}
	per := len(cfg.Ext[0].Modules)
	for _, c := range cfg.Ext {
		if len(c.Modules) != per {
			return nil, ErrShape
		}
	}
	n := &Network{
		chains:  nCh,
		perCh:   per,
		rootBW:  cfg.Ext[0].LinkGBps,
		nodeCnt: 1 + nCh*per,
	}
	moduleID := func(ch, hop int) int { return 1 + ch*per + hop }
	addLink := func(a, b int, gbps float64, cross bool) {
		n.links = append(n.links, link{a: a, b: b, gbps: gbps, cross: cross})
	}
	for ci, c := range cfg.Ext {
		for hi, m := range c.Modules {
			n.caps = append(n.caps, m.CapacityGB)
			prev := 0 // root
			if hi > 0 {
				prev = moduleID(ci, hi-1)
			}
			addLink(prev, moduleID(ci, hi), c.LinkGBps, false)
		}
	}
	if crossLinks && nCh > 1 {
		for ci := 0; ci < nCh; ci++ {
			next := (ci + 1) % nCh
			if nCh == 2 && ci == 1 {
				break // avoid a duplicate pair in the 2-chain ring
			}
			addLink(moduleID(ci, per-1), moduleID(next, per-1), cfg.Ext[ci].LinkGBps, true)
		}
	}
	n.adj = make([][]int, n.nodeCnt)
	for li, l := range n.links {
		n.adj[l.a] = append(n.adj[l.a], li)
		n.adj[l.b] = append(n.adj[l.b], li)
	}
	return n, nil
}

// Links returns the number of links (chain hops plus cross-links).
func (n *Network) Links() int { return len(n.links) }

// FailLink marks the hop'th link of a chain failed (0 = the EHP-to-first-
// module hop).
func (n *Network) FailLink(chain, hop int) error {
	if chain < 0 || chain >= n.chains || hop < 0 || hop >= n.perCh {
		return errors.New("extnet: no such link")
	}
	n.links[chain*n.perCh+hop].failed = true
	return nil
}

// Heal clears all failures.
func (n *Network) Heal() {
	for i := range n.links {
		n.links[i].failed = false
	}
}

// paths runs BFS from the root over live links, returning each node's
// parent link index (-1 if unreachable, -2 for the root).
func (n *Network) paths() []int {
	parent := make([]int, n.nodeCnt)
	for i := range parent {
		parent[i] = -1
	}
	parent[0] = -2
	queue := []int{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, li := range n.adj[v] {
			l := n.links[li]
			if l.failed {
				continue
			}
			w := l.a
			if w == v {
				w = l.b
			}
			if parent[w] == -1 {
				parent[w] = li
				queue = append(queue, w)
			}
		}
	}
	return parent
}

// ReachableCapacityGB returns the memory capacity still addressable.
func (n *Network) ReachableCapacityGB() float64 {
	parent := n.paths()
	var sum float64
	for m := 0; m < len(n.caps); m++ {
		if parent[1+m] >= 0 {
			sum += n.caps[m]
		}
	}
	return sum
}

// TotalCapacityGB returns the network's full capacity.
func (n *Network) TotalCapacityGB() float64 {
	var sum float64
	for _, c := range n.caps {
		sum += c
	}
	return sum
}

// DeliverableGBps computes the aggregate bandwidth the EHP can pull when
// every reachable module is accessed in proportion to its capacity: each
// module's traffic follows its BFS path; the scale is set by the most
// utilized link (the bottleneck).
func (n *Network) DeliverableGBps() float64 {
	parent := n.paths()
	load := make([]float64, len(n.links))
	var totalW float64
	for m := 0; m < len(n.caps); m++ {
		node := 1 + m
		if parent[node] < 0 {
			continue
		}
		w := n.caps[m]
		totalW += w
		// Walk the path back to the root, accumulating load.
		v := node
		for v != 0 {
			li := parent[v]
			load[li] += w
			l := n.links[li]
			if l.a == v {
				v = l.b
			} else {
				v = l.a
			}
		}
	}
	if totalW == 0 {
		return 0
	}
	scale := math.Inf(1)
	for li, w := range load {
		if w == 0 {
			continue
		}
		if s := n.links[li].gbps / w; s < scale {
			scale = s
		}
	}
	if math.IsInf(scale, 1) {
		return 0
	}
	return scale * totalW
}

// SingleFailureReport summarizes the effect of every possible single-link
// failure (the §II-B2 redundancy argument quantified).
type SingleFailureReport struct {
	Scenarios        int
	WorstCapacityGB  float64 // minimum reachable capacity across scenarios
	MeanCapacityGB   float64
	WorstBandwidthGB float64 // minimum deliverable GB/s across scenarios
	MeanBandwidthGB  float64
	AlwaysReachable  bool // every module reachable in every scenario
}

// SurveySingleFailures evaluates all single chain-link failures.
func (n *Network) SurveySingleFailures() SingleFailureReport {
	n.Heal()
	rep := SingleFailureReport{
		WorstCapacityGB:  math.Inf(1),
		WorstBandwidthGB: math.Inf(1),
		AlwaysReachable:  true,
	}
	total := n.TotalCapacityGB()
	for ch := 0; ch < n.chains; ch++ {
		for hop := 0; hop < n.perCh; hop++ {
			n.Heal()
			if err := n.FailLink(ch, hop); err != nil {
				// Unreachable by construction of the loop bounds.
				panic(err)
			}
			rep.Scenarios++
			cap := n.ReachableCapacityGB()
			bw := n.DeliverableGBps()
			rep.MeanCapacityGB += cap
			rep.MeanBandwidthGB += bw
			if cap < rep.WorstCapacityGB {
				rep.WorstCapacityGB = cap
			}
			if bw < rep.WorstBandwidthGB {
				rep.WorstBandwidthGB = bw
			}
			if cap < total {
				rep.AlwaysReachable = false
			}
		}
	}
	n.Heal()
	if rep.Scenarios > 0 {
		rep.MeanCapacityGB /= float64(rep.Scenarios)
		rep.MeanBandwidthGB /= float64(rep.Scenarios)
	}
	return rep
}
