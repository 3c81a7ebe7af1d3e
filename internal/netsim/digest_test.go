package netsim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"github.com/hobbitscan/hobbit/internal/faultplan"
	"github.com/hobbitscan/hobbit/internal/iputil"
	"github.com/hobbitscan/hobbit/internal/netsim"
)

// digestMaxTTL sweeps past the longest forward path (9 router hops plus
// an intra-AS chain of at most 2, then the destination).
const digestMaxTTL = 13

// TestReplyDigest pins every answer the simulator gives a measurement to
// a SHA-256 digest: each block's census bitmap, and, for a fixed sample
// of destinations from every vantage, pings at seq 0-2 and TTL-limited
// probes over TTLs 0 to digestMaxTTL, flows {0, 1, 5} and salts {1, 2}.
// It covers epochs 0 and 2 with scheduled splits, availability churn and
// outages in force, on a clean world and under a fault plan that
// blackholes, rate-limits, drops and flaps at once. A rewrite of the
// reply path may change its speed, never a digest; a Config knob that
// promises bit-identity at its zero value is held to it here.
func TestReplyDigest(t *testing.T) {
	want := map[string]string{
		"clean":   "f707822e9753e635627e5665596dbf36c9482f503af73875d2d683dfc2a9d757",
		"faulted": "206e05fd50e5bcaf01434b5b6b708625546ea893395f90adf77f6e7e249c87a6",
	}
	for _, name := range []string{"clean", "faulted"} {
		t.Run(name, func(t *testing.T) {
			cfg := netsim.DefaultConfig(600)
			cfg.BigBlockScale = 0.02
			cfg.PEpochSplit = 0.3
			w := netsim.MustNew(cfg)
			if name == "faulted" {
				w.SetFaults(combinedPlan(t, w))
			}
			if got := replyDigest(w); got != want[name] {
				t.Errorf("reply digest %s, want %s", got, want[name])
			}
		})
	}
}

// combinedPlan merges the blackhole, rate-storm, flap and congestion
// built-ins into one plan, congesting every vantage, active at epochs 0-2.
func combinedPlan(t *testing.T, w *netsim.World) *faultplan.Schedule {
	t.Helper()
	plan := &faultplan.Plan{Name: "digest", Salt: 0xd16e57}
	for _, name := range []string{"blackhole", "rate-storm", "flap", "congestion"} {
		p, err := faultplan.Builtin(name, w)
		if err != nil {
			t.Fatal(err)
		}
		plan.Events = append(plan.Events, p.Events...)
	}
	plan.Events = append(plan.Events, faultplan.Event{
		Kind: faultplan.Congestion, From: 0, To: 2, Vantage: -1, Severity: 0.1,
	})
	s, err := plan.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// replyDigest hashes the world's answers at epochs 0 and 2, leaving it at
// epoch 0.
func replyDigest(w *netsim.World) string {
	h := sha256.New()
	defer w.SetEpoch(0)
	var buf []byte
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	for _, epoch := range []int{0, 2} {
		w.SetEpoch(epoch)
		for _, b := range w.Blocks() {
			for _, word := range w.ScanBlock(b) {
				buf = binary.LittleEndian.AppendUint64(buf, word)
			}
		}
		flush()
		for _, dst := range digestSample(w) {
			for v := 0; v < w.NumVantages(); v++ {
				vt := w.Vantage(v)
				for seq := 0; seq < 3; seq++ {
					r, ok := vt.Ping(dst, seq)
					buf = appendReply(buf, r)
					buf = append(buf, boolByte(ok))
				}
				for ttl := 0; ttl <= digestMaxTTL; ttl++ {
					for _, flow := range []uint16{0, 1, 5} {
						for _, salt := range []uint32{1, 2} {
							buf = appendReply(buf, vt.Probe(dst, ttl, flow, salt))
						}
					}
				}
			}
			flush()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestSample is a fixed, world-derived destination sample: three
// addresses per block, among them both ends of the /24, and one unrouted
// address.
func digestSample(w *netsim.World) []iputil.Addr {
	dsts := []iputil.Addr{iputil.MustParseAddr("223.255.255.7")}
	for i, b := range w.Blocks() {
		dsts = append(dsts, b.Addr(0), b.Addr((i*97+13)&255), b.Addr(255))
	}
	return dsts
}

func appendReply(buf []byte, r netsim.ProbeReply) []byte {
	buf = append(buf, byte(r.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.From))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.RespTTL))
	return binary.LittleEndian.AppendUint64(buf, uint64(r.RTT))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
