// Package netsim implements the synthetic Internet substrate the Hobbit
// pipeline is measured against. It stands in for the live IPv4 network of
// the original study: a deterministic world of autonomous systems, route
// entries, router topology with per-flow and per-destination ECMP load
// balancers, and host populations with realistic ICMP behaviour (default
// TTLs, rate limiting, unresponsive routers, availability churn).
//
// The world answers exactly the two probe primitives the measurement stack
// needs — ICMP echo and TTL-limited probes — through pure functions of a
// seed, so replies are reproducible and independent of probe order, just
// as a (quiescent) real network would behave. Ground-truth accessors
// expose the planted homogeneity structure for validation.
package netsim

import (
	"errors"
	"fmt"

	"github.com/hobbitscan/hobbit/internal/metadata"
)

// BlockKind describes the delay/rDNS behaviour of the hosts in a block
// population.
type BlockKind int

// Block population kinds.
const (
	KindResidential BlockKind = iota
	KindDatacenter
	KindCellular
)

// BigBlockSpec plants one named large homogeneous aggregate (the
// populations of Table 5 plus the Dublin EC2 block that surfaces in the
// clustering experiment of Figure 10).
type BigBlockSpec struct {
	Name    string
	ASN     int
	Org     string
	Country string
	City    string
	Type    metadata.OrgType
	// Size is the number of /24 blocks in the aggregate at scale 1.0.
	Size int
	Kind BlockKind
	RDNS metadata.NameKind
	// Region names both the topology region and the rDNS region label.
	Region string
	// K is the number of last-hop routers the aggregate's addresses are
	// spread across by per-destination load balancing.
	K int
	// Starved marks the aggregate's blocks as having very few active
	// hosts, so that observed last-hop sets are partial. These are the
	// aggregates that identical-set aggregation fragments and MCL
	// clustering recovers (Section 6).
	Starved bool
	// SplitInto, when positive, expands the spec into many independent
	// aggregates of at most this many /24s instead of one large one.
	// Used for the Time Warner population of the sampling experiment,
	// which needs many Hobbit blocks with distinct naming schemes.
	SplitInto int
}

// HeteroASSpec describes one AS of Table 3 that splits /24s into sub-block
// allocations, with its share of the world's heterogeneous /24s.
type HeteroASSpec struct {
	ASN     int
	Org     string
	Country string
	Type    metadata.OrgType
	// Weight is proportional to the AS's share of heterogeneous /24s.
	Weight float64
}

// Config parameterizes world generation. DefaultConfig documents the
// values tuned to reproduce the shapes of the paper's tables and figures.
type Config struct {
	Seed uint64
	// NumBlocks is the total number of /24 destination blocks in the
	// universe, including planted big aggregates and heterogeneous
	// blocks.
	NumBlocks int
	// BigBlockScale scales the planted aggregate sizes, letting tests
	// build small worlds that keep the full structure.
	BigBlockScale float64

	// --- Host population ---

	// PLowActivity is the fraction of regular blocks with marginal
	// active populations; these supply the paper's "too few active"
	// category and the /26-coverage exclusions.
	PLowActivity float64
	// ActiveMeanHigh and ActiveMeanLow are the mean number of
	// scan-active hosts per /26 in normal and low-activity blocks;
	// ActiveMeanStarved applies to observation-starved aggregates: a
	// mild reduction that keeps blocks measurable (the exhaustive
	// reprobe can still complete their last-hop sets) while the normal
	// strategy's early termination records only partial sets.
	ActiveMeanHigh    float64
	ActiveMeanLow     float64
	ActiveMeanStarved float64
	// PersistProb is the probability that a scan-active host still
	// answers at probe time; the paper observed 54.05M responsive of
	// 64.45M probed (0.84). PersistProbLow applies to hosts in
	// low-activity blocks, whose availability churns harder — these
	// supply the bulk of the "too few active at probe time" category.
	PersistProb    float64
	PersistProbLow float64
	// TTLWeights are the relative frequencies of host default TTLs
	// 64, 128, and 255.
	TTLWeights [3]float64
	// PReverseSkew is the probability that a host's reverse path length
	// differs from its forward length (exercising the prober's first_ttl
	// back-off and forward walk).
	PReverseSkew float64
	// PPingLoss is the per-probe probability an echo reply is lost.
	PPingLoss float64

	// --- Routing structure ---

	// PHeterogeneous is the fraction of the universe planted as truly
	// heterogeneous /24s (split route entries).
	PHeterogeneous float64
	// PEpochSplit is the per-block probability that a regular
	// homogeneous /24 splits into sub-allocations at a later epoch,
	// driving the longitudinal drift (the paper's future work).
	PEpochSplit float64
	// POutage is the per-epoch probability that an aggregate's edge
	// goes dark (all its hosts stop answering) — the whole-block outages
	// a Trinocular-style tracker detects. Epoch 0 never has outages so
	// the baseline snapshot is clean.
	POutage float64
	// EpochChurn is the per-epoch probability that a host's long-term
	// activity flips (an active host goes away or a new one appears).
	// Availability is otherwise correlated across epochs, as real hosts
	// are.
	EpochChurn float64
	// PUnresponsiveLastHop is the fraction of aggregates whose last-hop
	// routers never answer probes.
	PUnresponsiveLastHop float64
	// PSingleLastHop is the probability that a regular aggregate has a
	// single last-hop router (K = 1).
	PSingleLastHop float64
	// KValues/KWeights give the distribution of last-hop cardinality
	// for aggregates with K > 1.
	KValues  []int
	KWeights []float64
	// PerFlowFanout is the width of the per-flow ECMP diamond in the
	// core; PerDestFanout and PerDestFanout2 are the widths of the two
	// cascaded per-destination branch stages in the destination AS
	// (cascading multiplies whole-path diversity without multiplying
	// last hops, the Section 3.1 effect).
	PerFlowFanout  int
	PerDestFanout  int
	PerDestFanout2 int
	// PFlowDivergentLast is the probability that a multi-last-hop
	// aggregate's load balancing hashes flow fields into the last-hop
	// choice too, so per-flow paths toward one address end at different
	// last hops — the Section 2.3 "routes differ due to load balancing
	// but do not converge" case.
	PFlowDivergentLast float64
	// PNoPerDestLB is the probability that a single-last-hop aggregate
	// has no per-destination branching at all, so every address shares
	// every route — the /24s the straw-man whole-route comparison still
	// judges homogeneous (the paper's residual 12%).
	PNoPerDestLB float64
	// PSharedLastHop is the probability that a regular multi-last-hop
	// aggregate reuses one last-hop router of another aggregate in the
	// same AS. Distinct aggregates then have overlapping-but-different
	// last-hop sets, which is what makes some MCL clusters genuinely
	// wrong — the population Figure 9's rule screening separates.
	PSharedLastHop float64
	// Vantages is the number of probing vantage points the world
	// supports (Section 6.1 discusses varying vantage points to reveal
	// more per-destination paths); vantage 0 is the paper's UMD source.
	Vantages int
	// PSrcSensitiveLB is the probability that an aggregate's
	// per-destination load balancers hash the source address too, so a
	// different vantage reveals different last-hop choices.
	PSrcSensitiveLB float64
	// PRouterUnresponsive is the fraction of transit routers that never
	// answer TTL-exceeded probes (beyond last-hop behaviour).
	PRouterUnresponsive float64
	// PRateLimit is the per-probe probability that a responsive router
	// drops a TTL-exceeded reply (ICMP rate limiting).
	PRateLimit float64

	// --- Aggregate structure ---

	// AggSizeValues/AggSizeWeights give the size distribution (in /24s)
	// of regular aggregates; the heavy tail of Figure 5 comes from the
	// planted big blocks.
	AggSizeValues  []int
	AggSizeWeights []float64
	// SegmentsPerAggregate bounds how many separated contiguous runs an
	// aggregate's /24s are scattered into (Figures 7 and 8).
	SegmentsPerAggregate int
	// PStarved is the fraction of regular multi-/24 aggregates that are
	// observation-starved (low activity), feeding the clustering
	// experiment alongside the starved big blocks.
	PStarved float64

	// --- Planted populations ---

	BigBlocks []BigBlockSpec
	HeteroAS  []HeteroASSpec
	// HeteroCompositions/HeteroCompWeights give the sub-block splits of
	// heterogeneous /24s (Table 2); each composition lists prefix
	// lengths that must tile a /24.
	HeteroCompositions [][]int
	HeteroCompWeights  []float64
}

// DefaultConfig returns the configuration tuned to the paper's measured
// shapes at the given universe size.
func DefaultConfig(numBlocks int) Config {
	return Config{
		Seed:          0x40bb17,
		NumBlocks:     numBlocks,
		BigBlockScale: 1.0,

		PLowActivity:      0.84,
		ActiveMeanHigh:    10.5,
		ActiveMeanLow:     0.95,
		ActiveMeanStarved: 9.5,
		PersistProb:       0.87,
		PersistProbLow:    0.50,
		TTLWeights:        [3]float64{0.52, 0.42, 0.06},
		PReverseSkew:      0.25,
		PPingLoss:         0.01,

		PHeterogeneous:       0.013,
		PEpochSplit:          0.012,
		POutage:              0.04,
		EpochChurn:           0.15,
		PUnresponsiveLastHop: 0.26,
		PSingleLastHop:       0.55,
		KValues:              []int{2, 3, 4, 6, 8, 12, 16, 24, 32},
		KWeights:             []float64{0.18, 0.30, 0.20, 0.13, 0.09, 0.05, 0.028, 0.016, 0.011},
		PerFlowFanout:        4,
		PerDestFanout:        4,
		PerDestFanout2:       4,
		PFlowDivergentLast:   0.4,
		PNoPerDestLB:         0.40,
		PSharedLastHop:       0.35,
		Vantages:             3,
		PSrcSensitiveLB:      0.5,
		PRouterUnresponsive:  0.06,
		PRateLimit:           0.02,

		AggSizeValues:        []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 256},
		AggSizeWeights:       []float64{0.72, 0.10, 0.05, 0.04, 0.025, 0.02, 0.012, 0.009, 0.006, 0.004, 0.002, 0.0012, 0.0006, 0.0003, 0.0001},
		SegmentsPerAggregate: 5,
		PStarved:             0.05,

		BigBlocks:          PaperBigBlocks(),
		HeteroAS:           PaperHeteroASes(),
		HeteroCompositions: paperCompositions(),
		HeteroCompWeights:  paperCompositionWeights(),
	}
}

// PaperBigBlocks returns the Table 5 aggregates plus the Dublin EC2 block
// of Section 6.6 at their published sizes.
func PaperBigBlocks() []BigBlockSpec {
	return []BigBlockSpec{
		{Name: "egi", ASN: 18779, Org: "EGI Hosting", Country: "US", City: "Santa Clara", Type: metadata.OrgHosting, Size: 1251, Kind: KindDatacenter, RDNS: metadata.NameGenericISP, Region: "us-west", K: 3},
		{Name: "tele2-a", ASN: 1257, Org: "Tele2", Country: "Sweden", City: "Stockholm", Type: metadata.OrgBroadbandISP, Size: 1187, Kind: KindCellular, RDNS: metadata.NameTele2Cellular, Region: "eu-north", K: 4},
		{Name: "amazon-apne", ASN: 16509, Org: "Amazon", Country: "Japan", City: "Tokyo", Type: metadata.OrgHostingCloud, Size: 1122, Kind: KindDatacenter, RDNS: metadata.NameEC2, Region: "ap-northeast-1", K: 6},
		{Name: "ntt", ASN: 2914, Org: "NTT America", Country: "US", City: "Dallas", Type: metadata.OrgHostingCloud, Size: 1071, Kind: KindDatacenter, RDNS: metadata.NameGenericISP, Region: "us-east", K: 4},
		{Name: "opentransfer-a", ASN: 32392, Org: "OPENTRANSFER", Country: "US", City: "Orlando", Type: metadata.OrgHosting, Size: 940, Kind: KindDatacenter, RDNS: metadata.NameGenericISP, Region: "us-east", K: 2},
		{Name: "tele2-b", ASN: 1257, Org: "Tele2", Country: "Sweden", City: "Stockholm", Type: metadata.OrgBroadbandISP, Size: 857, Kind: KindCellular, RDNS: metadata.NameTele2Cellular, Region: "eu-north", K: 3},
		{Name: "ocn-a", ASN: 4713, Org: "OCN", Country: "Japan", City: "Tokyo", Type: metadata.OrgBroadbandISP, Size: 840, Kind: KindCellular, RDNS: metadata.NameOCNOmed, Region: "tokyo", K: 4},
		{Name: "amazon-usw", ASN: 16509, Org: "Amazon", Country: "US", City: "San Jose", Type: metadata.OrgHostingCloud, Size: 835, Kind: KindDatacenter, RDNS: metadata.NameEC2, Region: "us-west-1", K: 6},
		{Name: "ocn-b", ASN: 4713, Org: "OCN", Country: "Japan", City: "Osaka", Type: metadata.OrgBroadbandISP, Size: 783, Kind: KindCellular, RDNS: metadata.NameOCNOmed, Region: "osaka", K: 3},
		{Name: "singtel", ASN: 9506, Org: "SingTel", Country: "Singapore", City: "Singapore", Type: metadata.OrgBroadbandISP, Size: 732, Kind: KindDatacenter, RDNS: metadata.NameGenericISP, Region: "ap-se", K: 2},
		{Name: "softbank", ASN: 17676, Org: "SoftBank", Country: "Japan", City: "Tokyo", Type: metadata.OrgBroadbandISP, Size: 731, Kind: KindDatacenter, RDNS: metadata.NameGenericISP, Region: "ap-ne", K: 2},
		{Name: "godaddy", ASN: 26496, Org: "GoDaddy", Country: "US", City: "Scottsdale", Type: metadata.OrgHosting, Size: 703, Kind: KindDatacenter, RDNS: metadata.NameGenericISP, Region: "us-west", K: 3},
		{Name: "verizon", ASN: 22394, Org: "Verizon Wireless", Country: "US", City: "Newark", Type: metadata.OrgMobileISP, Size: 699, Kind: KindCellular, RDNS: metadata.NameGenericISP, Region: "us-east", K: 4},
		{Name: "opentransfer-b", ASN: 32392, Org: "OPENTRANSFER", Country: "US", City: "Orlando", Type: metadata.OrgHosting, Size: 698, Kind: KindDatacenter, RDNS: metadata.NameGenericISP, Region: "us-east", K: 2},
		{Name: "cox", ASN: 22773, Org: "Cox", Country: "US", City: "Phoenix", Type: metadata.OrgFixedISP, Size: 679, Kind: KindDatacenter, RDNS: metadata.NameCoxBusiness, Region: "ph.ph", K: 2},
		// Section 6.6: the Amazon Dublin aggregate only surfaces after
		// MCL because its blocks are observation-starved.
		{Name: "amazon-dub", ASN: 16509, Org: "Amazon", Country: "Ireland", City: "Dublin", Type: metadata.OrgHostingCloud, Size: 1217, Kind: KindDatacenter, RDNS: metadata.NameEC2, Region: "eu-west-1", K: 8, Starved: true},
		// Time Warner population for the sampling experiment (Fig. 12).
		{Name: "twc", ASN: 11351, Org: "Time Warner Cable", Country: "US", City: "Syracuse", Type: metadata.OrgBroadbandISP, Size: 900, Kind: KindResidential, RDNS: metadata.NameTimeWarner, Region: "nyroc", K: 2, SplitInto: 48},
	}
}

// PaperHeteroASes returns the Table 3 ASes with weights proportional to
// their published heterogeneous /24 counts.
func PaperHeteroASes() []HeteroASSpec {
	return []HeteroASSpec{
		{ASN: 4766, Org: "Korea Telecom", Country: "Korea", Type: metadata.OrgBroadbandISP, Weight: 8207},
		{ASN: 9318, Org: "SK Broadband", Country: "Korea", Type: metadata.OrgBroadbandISP, Weight: 1798},
		{ASN: 15557, Org: "SFR", Country: "France", Type: metadata.OrgBroadbandISP, Weight: 499},
		{ASN: 3292, Org: "TDC A/S", Country: "Denmark", Type: metadata.OrgBroadbandISP, Weight: 486},
		{ASN: 4788, Org: "TM Net", Country: "Malaysia", Type: metadata.OrgBroadbandISP, Weight: 242},
		{ASN: 9158, Org: "Telenor A/S", Country: "Denmark", Type: metadata.OrgBroadbandISP, Weight: 172},
		{ASN: 36352, Org: "ColoCrossing", Country: "US", Type: metadata.OrgHosting, Weight: 125},
		{ASN: 28751, Org: "Caucasus", Country: "Georgia", Type: metadata.OrgBroadbandISP, Weight: 115},
		{ASN: 20751, Org: "Magticom", Country: "Georgia", Type: metadata.OrgBroadbandISP, Weight: 108},
		{ASN: 35632, Org: "IRIS64", Country: "France", Type: metadata.OrgBroadbandISP, Weight: 106},
	}
}

// paperCompositions returns the Table 2 sub-block compositions as prefix
// length multisets; each tiles a /24 exactly.
func paperCompositions() [][]int {
	return [][]int{
		{25, 25},
		{25, 26, 26},
		{26, 26, 26, 26},
		{25, 26, 27, 27},
		{26, 26, 26, 27, 27},
		{26, 26, 27, 27, 27, 27},
		{25, 26, 27, 28, 28},
		{25, 27, 27, 27, 27},
	}
}

func paperCompositionWeights() []float64 {
	return []float64{50.48, 20.65, 15.79, 5.92, 4.63, 1.13, 0.81, 0.58}
}

// Validate checks the configuration for structural errors.
func (c *Config) Validate() error {
	if c.NumBlocks <= 0 {
		return errors.New("netsim: NumBlocks must be positive")
	}
	if c.BigBlockScale < 0 {
		return errors.New("netsim: BigBlockScale must be non-negative")
	}
	if len(c.KValues) != len(c.KWeights) || len(c.KValues) == 0 {
		return errors.New("netsim: KValues/KWeights length mismatch or empty")
	}
	for _, k := range c.KValues {
		if k < 2 {
			return errors.New("netsim: KValues entries must be >= 2")
		}
	}
	if len(c.AggSizeValues) != len(c.AggSizeWeights) || len(c.AggSizeValues) == 0 {
		return errors.New("netsim: AggSize values/weights mismatch or empty")
	}
	if c.PerFlowFanout < 1 || c.PerDestFanout < 1 || c.PerDestFanout2 < 1 {
		return errors.New("netsim: fanouts must be >= 1")
	}
	if c.Vantages < 1 {
		return errors.New("netsim: Vantages must be >= 1")
	}
	if len(c.HeteroCompositions) != len(c.HeteroCompWeights) {
		return errors.New("netsim: hetero compositions/weights mismatch")
	}
	for i, comp := range c.HeteroCompositions {
		total := 0
		for _, ln := range comp {
			if ln < 25 || ln > 30 {
				return fmt.Errorf("netsim: composition %d has invalid prefix length %d", i, ln)
			}
			total += 1 << (32 - uint(ln))
		}
		if total != 256 {
			return fmt.Errorf("netsim: composition %d does not tile a /24 (covers %d addresses)", i, total)
		}
	}
	for _, p := range []float64{c.PLowActivity, c.PersistProb, c.PersistProbLow, c.PHeterogeneous, c.PEpochSplit, c.POutage, c.EpochChurn,
		c.PUnresponsiveLastHop, c.PSingleLastHop, c.PRouterUnresponsive,
		c.PRateLimit, c.PReverseSkew, c.PPingLoss, c.PStarved} {
		if p < 0 || p > 1 {
			return fmt.Errorf("netsim: probability %v out of [0,1]", p)
		}
	}
	return nil
}
