package eval

import (
	"github.com/hobbitscan/hobbit/internal/aggregate"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
)

func init() {
	register("dhcp", "Extension (DHCP implication): re-finding re-leased hosts per block", runDHCP)
}

// runDHCP demonstrates the paper's third motivating implication: dynamic
// addressing moves hosts between measurements, and "knowing the addresses
// that are in the same homogeneous blocks as their (old) addresses can
// help this search". Hosts of multi-/24 Hobbit blocks are tracked by an
// application-layer fingerprint (an SSH host key, say); after the leases
// roll over in epoch 1, each is searched for by rescanning its old /24
// and by rescanning every /24 of its old Hobbit block.
func runDHCP(l *Lab) (*Report, error) {
	r := newReport("dhcp", "re-finding re-leased hosts per /24 vs per block")
	out, err := l.Pipeline()
	if err != nil {
		return nil, err
	}
	defer l.World.SetEpoch(0)

	type host struct {
		fp    netsim.Fingerprint
		old24 iputil.Block24
		block *aggregate.Block
	}
	var hosts []host
	for _, agg := range out.Final {
		if agg.Size() < 2 {
			continue
		}
		for _, b := range agg.Blocks24 {
			for _, a := range out.Dataset.Actives(b) {
				if fp, ok := l.World.HostFingerprint(a); ok {
					// One host per /24 keeps the sample spread.
					hosts = append(hosts, host{fp: fp, old24: b, block: agg})
					break
				}
			}
		}
	}
	hosts = strideSample(hosts, 200)
	if len(hosts) == 0 {
		r.printf("no fingerprinted hosts in multi-/24 blocks")
		return r, nil
	}

	// The leases roll over.
	l.World.SetEpoch(1)
	// search rescans every address of blocks in order until one answers
	// with the host's fingerprint.
	search := func(fp netsim.Fingerprint, blocks []iputil.Block24) (found bool, probes int) {
		for _, b := range blocks {
			for i := 0; i < 256; i++ {
				probes++
				if got, ok := l.World.HostFingerprint(b.Addr(i)); ok && got == fp {
					return true, probes
				}
			}
		}
		return false, probes
	}
	var found24, foundBlock, probes24, probesBlock int
	for _, h := range hosts {
		ok, n := search(h.fp, []iputil.Block24{h.old24})
		if ok {
			found24++
		}
		probes24 += n
		ok, n = search(h.fp, h.block.Blocks24)
		if ok {
			foundBlock++
		}
		probesBlock += n
	}

	n := float64(len(hosts))
	r.printf("tracking %d fingerprinted hosts of multi-/24 Hobbit blocks across a lease rollover", len(hosts))
	r.printf("%-22s %10s %12s", "search strategy", "recovered", "probes/host")
	r.printf("%-22s %9.1f%% %12.0f", "rescan old /24", 100*float64(found24)/n, float64(probes24)/n)
	r.printf("%-22s %9.1f%% %12.0f", "rescan Hobbit block", 100*float64(foundBlock)/n, float64(probesBlock)/n)
	r.Metrics["hosts"] = n
	r.Metrics["recovered_24"] = float64(found24) / n
	r.Metrics["recovered_block"] = float64(foundBlock) / n
	r.Metrics["probes_per_host_24"] = float64(probes24) / n
	r.Metrics["probes_per_host_block"] = float64(probesBlock) / n
	r.printf("hosts re-lease anywhere within their homogeneous block, so the old /24")
	r.printf("often comes up empty while the block-wide search recovers them")
	return r, nil
}
