package hobbit

import (
	"reflect"
	"slices"
	"testing"

	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/probe"
)

// packet is one packet a recorder forwarded: a probe, or a ping with its
// sequence number in ttl.
type packet struct {
	dst  iputil.Addr
	ttl  int
	flow uint16
	salt uint32
	ping bool
}

// recorder forwards to the Network under it and records every packet in
// the order it was sent.
type recorder struct {
	probe.Network
	sent []packet
}

func (r *recorder) Ping(dst iputil.Addr, seq int) (probe.PingResult, bool) {
	r.sent = append(r.sent, packet{dst: dst, ttl: seq, ping: true})
	return r.Network.Ping(dst, seq)
}

func (r *recorder) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) probe.Result {
	r.sent = append(r.sent, packet{dst: dst, ttl: ttl, flow: flowID, salt: salt})
	return r.Network.Probe(dst, ttl, flowID, salt)
}

// take returns the packets recorded since the last take.
func (r *recorder) take() []packet {
	out := r.sent
	r.sent = nil
	return out
}

// enoughAt is a Terminator satisfied by n responders at any cardinality.
type enoughAt int

func (n enoughAt) Enough(_, probed int) bool { return probed >= int(n) }

// cloneResult copies r deeply enough that a change to any slice r holds
// shows up as a difference, up to each group's capacity: an append to a
// group's Addrs writes past its length.
func cloneResult(r BlockResult) BlockResult {
	out := r
	out.Groups = make([]Group, len(r.Groups))
	for i, g := range r.Groups {
		out.Groups[i] = Group{LastHop: g.LastHop, Addrs: slices.Clone(g.Addrs[:cap(g.Addrs)])}
	}
	out.LastHops = slices.Clone(r.LastHops)
	out.SubBlocks = slices.Clone(r.SubBlocks)
	return out
}

// TestResume resumes campaign measurements that stopped on each of the
// campaign's rules, on a scripted /24 of 24 actives (anonNet: every
// destination sits 10 hops away, its last hop answers by flow from the
// routers the case gives it). Resumed with Exhaustive set, each must
// equal the from-scratch exhaustive MeasureBlock and send exactly the
// packets that measurement sends past the campaign's last destination:
// the from-scratch run's packets are the campaign's followed by the
// resume's. Resuming without Exhaustive returns the campaign's result
// and sends nothing, and the campaign's result is never modified.
func TestResume(t *testing.T) {
	const lhA, lhB iputil.Addr = 0x64000001, 0x64000002
	b := iputil.MustParseBlock24("192.0.2.0/24")
	var by26 [4][]iputil.Addr
	for i := 0; i < 24; i++ {
		q := i % 4
		by26[q] = append(by26[q], b.Addr(64*q+1+7*(i/4)))
	}
	oneHop := func(iputil.Addr) []iputil.Addr { return []iputil.Addr{lhA} }
	for _, tc := range []struct {
		name string
		term Terminator
		// responders, when set, is how many destinations answer the
		// ping, the first ones in probing order; the rest never do.
		responders int
		// hops gives a responder's last hops; none is anonymous.
		hops func(dst iputil.Addr) []iputil.Addr
		// class and probed are the campaign's; extra is how many
		// destinations the exhaustive resume adds.
		class         Class
		probed, extra int
	}{
		// Six responders behind one answering hop: the exhaustive
		// bound at one last hop is also six.
		{name: "single-last-hop", hops: oneHop, class: ClassSameLastHop, probed: 6},
		// Six anonymous responders: the stop both loops share.
		{name: "anonymous", hops: func(iputil.Addr) []iputil.Addr { return nil }, class: ClassUnresponsiveLastHop, probed: 6},
		// The first and third /26s behind lhA, the others behind
		// lhB: non-hierarchical after one round, and the exhaustive
		// bound at two last hops is eleven responders.
		{name: "non-hierarchical", hops: func(dst iputil.Addr) []iputil.Addr {
			if dst.Block26()%2 == 0 {
				return []iputil.Addr{lhA}
			}
			return []iputil.Addr{lhB}
		}, class: ClassNonHierarchical, probed: 4, extra: 7},
		// The lower half behind lhA, the upper behind lhB: hierarchical,
		// and a terminator satisfied at four responders stops the
		// campaign below the six the exhaustive bound also needs.
		{name: "terminator", term: enoughAt(4), hops: func(dst iputil.Addr) []iputil.Addr {
			if dst.Block26() < 2 {
				return []iputil.Addr{lhA}
			}
			return []iputil.Addr{lhB}
		}, class: ClassHierarchical, probed: 4, extra: 2},
		// Five responders behind one hop: no rule stops the campaign
		// before its last active.
		{name: "actives-exhausted", responders: 5, hops: oneHop, class: ClassTooFewActive, probed: 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := Measurer{Seed: 1, Term: tc.term}
			n := &anonNet{hops: map[iputil.Addr][]iputil.Addr{}, dead: map[iputil.Addr]bool{}}
			for pos, dst := range m.Order(b, by26) {
				if tc.responders > 0 && pos >= tc.responders {
					n.dead[dst] = true
					continue
				}
				n.hops[dst] = tc.hops(dst)
			}
			rec := &recorder{Network: n}
			m.Net = rec

			campaign := m.MeasureBlock(b, by26)
			campaignSent := rec.take()
			if campaign.Class != tc.class || campaign.Probed != tc.probed {
				t.Fatalf("campaign: %v after %d destinations, want %v after %d", campaign.Class, campaign.Probed, tc.class, tc.probed)
			}
			// Spare capacity in every group: a Resume that appended
			// to prev's slices, or sorted them, would show.
			for i, g := range campaign.Groups {
				campaign.Groups[i].Addrs = slices.Grow(slices.Clone(g.Addrs), 8)
			}
			before := cloneResult(campaign)

			if got := m.Resume(&campaign, by26); !reflect.DeepEqual(got, campaign) {
				t.Errorf("resumed without Exhaustive: %+v, campaign %+v", got, campaign)
			}
			if sent := rec.take(); len(sent) != 0 {
				t.Errorf("resumed without Exhaustive, %d packets sent", len(sent))
			}

			ex := m
			ex.Exhaustive = true
			resumed := ex.Resume(&campaign, by26)
			resumeSent := rec.take()
			scratch := ex.MeasureBlock(b, by26)
			scratchSent := rec.take()
			if !reflect.DeepEqual(resumed, scratch) {
				t.Errorf("resumed %+v, from scratch %+v", resumed, scratch)
			}
			if !slices.Equal(scratchSent, slices.Concat(campaignSent, resumeSent)) {
				t.Errorf("from scratch sent %d packets; the campaign sent %d and the resume %d, not its prefix and suffix",
					len(scratchSent), len(campaignSent), len(resumeSent))
			}
			if got := resumed.Probed - campaign.Probed; got != tc.extra || (tc.extra == 0) != (len(resumeSent) == 0) {
				t.Errorf("resume probed %d more destinations with %d packets, want %d", got, len(resumeSent), tc.extra)
			}
			if !reflect.DeepEqual(cloneResult(campaign), before) {
				t.Errorf("Resume modified its input: %+v, was %+v", campaign, before)
			}
		})
	}
}
