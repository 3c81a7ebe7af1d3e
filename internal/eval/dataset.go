package eval

import (
	"runtime"
	"sync"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/probe"
	"github.com/hobbitscan/hobbit/internal/trace"
)

// BlockTraces holds the full Paris-traceroute MDA results for every
// responsive address of one /24 — the dataset of Section 3.1 that feeds
// Figures 3, 4 and 11.
type BlockTraces struct {
	Block iputil.Block24
	// Addrs and Sets are parallel: the path set enumerated toward each
	// responsive address.
	Addrs []iputil.Addr
	Sets  []*trace.PathSet
	// Detected records the sequential Hobbit verdict for the block
	// (homogeneous or not) from the campaign.
	Detected bool
	// ProbedBySequential is how many destinations the sequential
	// measurement probed before terminating.
	ProbedBySequential int
}

// CardinalityPaths returns the number of distinct whole paths across all
// addresses.
func (bt *BlockTraces) CardinalityPaths() int {
	keys := make(map[string]struct{})
	for _, s := range bt.Sets {
		for _, p := range s.Paths() {
			keys[p.Key()] = struct{}{}
		}
	}
	return len(keys)
}

// CardinalityLastHops returns the number of distinct responsive last-hop
// routers.
func (bt *BlockTraces) CardinalityLastHops() int {
	seen := make(map[iputil.Addr]struct{})
	for _, s := range bt.Sets {
		hops, _ := s.LastHops()
		for _, h := range hops {
			seen[h] = struct{}{}
		}
	}
	return len(seen)
}

// CardinalitySubPaths returns the number of distinct path suffixes below
// the deepest router common to all addresses (the sub-path metric of
// Figure 3b).
func (bt *BlockTraces) CardinalitySubPaths() int {
	depth := trace.DeepestCommonDepth(bt.Sets)
	keys := make(map[string]struct{})
	for _, s := range bt.Sets {
		for _, p := range s.Paths() {
			keys[trace.SubPathKey(p, depth)] = struct{}{}
		}
	}
	return len(keys)
}

// LastHopGroups groups the addresses by (single) last-hop router for the
// static Hobbit judgment; addresses whose paths end at several distinct
// responsive last hops join each group.
func (bt *BlockTraces) LastHopGroups() map[iputil.Addr][]iputil.Addr {
	groups := make(map[iputil.Addr][]iputil.Addr)
	for i, s := range bt.Sets {
		hops, _ := s.LastHops()
		for _, h := range hops {
			groups[h] = append(groups[h], bt.Addrs[i])
		}
	}
	return groups
}

// Links returns the distinct router links across all traces of the block.
func (bt *BlockTraces) Links() map[trace.Link]struct{} {
	out := make(map[trace.Link]struct{})
	for _, s := range bt.Sets {
		for _, p := range s.Paths() {
			for _, ln := range p.Links() {
				out[ln] = struct{}{}
			}
		}
	}
	return out
}

// TraceDataset is the full-trace corpus over a set of homogeneous /24s.
type TraceDataset struct {
	Blocks []*BlockTraces
}

// TraceDataset builds (and caches) the corpus: it takes the campaign's
// homogeneous blocks plus, for Figure 3a's undetected series, analyzable
// blocks that are truly homogeneous but were classified hierarchical,
// then fully traces every responsive address.
func (l *Lab) TraceDataset() (*TraceDataset, error) {
	l.mu.Lock()
	if l.dataset != nil {
		defer l.mu.Unlock()
		return l.dataset, nil
	}
	l.mu.Unlock()

	out, err := l.Pipeline()
	if err != nil {
		return nil, err
	}

	type job struct {
		block    iputil.Block24
		detected bool
		probed   int
	}
	var jobs []job
	for _, b := range out.Campaign.Order {
		br := out.Campaign.Blocks[b]
		if !br.Class.Analyzable() {
			continue
		}
		hom, known := l.World.TrueHomogeneous(b)
		if !known || !hom {
			continue
		}
		jobs = append(jobs, job{block: b, detected: br.Class.Homogeneous(), probed: br.Probed})
	}
	jobs = strideSample(jobs, traceBlocks)

	ds := &TraceDataset{Blocks: make([]*BlockTraces, len(jobs))}
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			bt := &BlockTraces{Block: j.block, Detected: j.detected, ProbedBySequential: j.probed}
			for _, a := range out.Dataset.Actives(j.block) {
				res := probe.MDA(l.Net, a, probe.MDAOptions{})
				if !res.DestReached || res.Paths.Len() == 0 {
					continue
				}
				bt.Addrs = append(bt.Addrs, a)
				bt.Sets = append(bt.Sets, res.Paths)
			}
			ds.Blocks[i] = bt
		}(i, j)
	}
	wg.Wait()

	// Drop blocks whose hosts all churned away.
	kept := ds.Blocks[:0]
	for _, bt := range ds.Blocks {
		if bt != nil && len(bt.Addrs) >= 4 {
			kept = append(kept, bt)
		}
	}
	ds.Blocks = kept

	l.mu.Lock()
	l.dataset = ds
	l.mu.Unlock()
	return ds, nil
}
