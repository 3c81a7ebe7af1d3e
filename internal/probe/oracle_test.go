package probe

import (
	"fmt"
	"slices"
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
)

// halvingLastHops is the last-hop search as Section 3.4 states it: after
// an immediate echo at first_ttl f > 1 the next MDA run starts at ⌊f/2⌋.
// It is the oracle for FindLastHops' back-off, which must find the same
// last hops for fewer probes, and it fills in only the fields the
// comparison reads.
func halvingLastHops(net Network, dst iputil.Addr, opts MDAOptions) LastHopResult {
	opts = opts.Canonical()
	var ping PingResult
	ok := false
	for seq := 0; seq < pingAttempts && !ok; seq++ {
		ping, ok = net.Ping(dst, seq)
	}
	if !ok {
		return LastHopResult{}
	}
	firstTTL := min(max(HopEstimate(ping.RespTTL)-1, 1), opts.MaxTTL)
	for {
		opts.FirstTTL = firstTTL
		res := MDA(net, dst, opts)
		switch {
		case res.ImmediateEcho() && firstTTL > 1:
			firstTTL /= 2
		case !res.DestReached && firstTTL > 1:
			firstTTL = 1
		case !res.DestReached:
			return LastHopResult{}
		default:
			out := LastHopResult{Responded: true, DestTTL: res.DestTTL}
			out.LastHops, out.Unresponsive = res.Paths.LastHops()
			return out
		}
	}
}

// TestFindLastHopsMatchesHalvingOracle runs FindLastHops and the halving
// oracle on every census-active destination of clean worlds at three
// seeds. The two agree on what Hobbit reads from a destination, except
// where a rate-limited reply falls on a different salt, and the back-off
// sends at most three quarters of the oracle's probes.
func TestFindLastHopsMatchesHalvingOracle(t *testing.T) {
	for _, seed := range []uint64{1, 7, 11} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			compareHalvingOracle(t, seed)
		})
	}
}

// compareHalvingOracle is one seed of TestFindLastHopsMatchesHalvingOracle.
func compareHalvingOracle(t *testing.T, seed uint64) {
	cfg := netsim.DefaultConfig(oracleBlocks)
	cfg.BigBlockScale = 0.05
	cfg.Seed = seed
	w, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, want := Instrument(NewSimNetwork(w), nil, ""), Instrument(NewSimNetwork(w), nil, "")
	dsts, differ := 0, 0
	for _, b := range w.Blocks() {
		bm := w.ScanBlock(b)
		for i := 0; i < 256; i++ {
			if bm[i>>6]&(1<<uint(i&63)) == 0 {
				continue
			}
			dst := b.Addr(i)
			g, o := FindLastHops(got, dst, MDAOptions{}, nil), halvingLastHops(want, dst, MDAOptions{})
			dsts++
			if g.Responded != o.Responded || g.DestTTL != o.DestTTL || g.Unresponsive != o.Unresponsive || !slices.Equal(g.LastHops, o.LastHops) {
				differ++
			}
		}
	}
	ratio := float64(got.Probes()) / float64(want.Probes())
	t.Logf("seed %d: %d of %d destinations differ; %d probes vs the oracle's %d (%.3f)", seed, differ, dsts, got.Probes(), want.Probes(), ratio)
	if dsts < 10000 {
		t.Fatalf("seed %d: only %d destinations, too few to bound a 0.01%% disagreement", seed, dsts)
	}
	if float64(differ) > 0.0001*float64(dsts) {
		t.Errorf("seed %d: %d of %d destinations differ from the halving oracle, more than 0.01%%", seed, differ, dsts)
	}
	if ratio > 0.75 {
		t.Errorf("seed %d: back-off sent %.3f of the oracle's probes, want at most 0.75", seed, ratio)
	}
}

// oracleBlocks sizes the oracle's worlds: each seed yields some 17,000
// census-active destinations, enough that the 0.01% bound allows one
// disagreement, and the three seeds run in a few seconds under -race.
const oracleBlocks = 400
