//go:build linux

package probe

import (
	"testing"
)

// TestNewICMPNetwork exercises socket setup without probing anyone: with
// CAP_NET_RAW the socket opens and TTL manipulation works; without it the
// constructor fails cleanly.
func TestNewICMPNetwork(t *testing.T) {
	n, err := NewICMPNetwork()
	if err != nil {
		t.Skipf("raw sockets unavailable (no CAP_NET_RAW): %v", err)
	}
	defer n.Close()
	if n.rawFD < 0 {
		t.Error("raw fd not captured")
	}
	for _, ttl := range []int{1, 64, 255} {
		if err := n.setTTL(ttl); err != nil {
			t.Errorf("setTTL(%d): %v", ttl, err)
		}
	}
}

func TestEchoRequestWellFormed(t *testing.T) {
	msg := echoRequest(0xbeef, 42)
	if len(msg) != 16 {
		t.Fatalf("message length = %d", len(msg))
	}
	if msg[0] != 8 || msg[1] != 0 {
		t.Error("not an echo request")
	}
	if icmpChecksum(msg) != 0 {
		t.Error("checksum does not verify")
	}
}

func TestParseReplyTimeExceeded(t *testing.T) {
	// A time-exceeded message quoting the original echo request.
	orig := echoRequest(0x1234, 9)
	inner := append([]byte{
		0x45, 0, 0, 28, 0, 0, 0, 0, 1, 1, 0, 0, // quoted IPv4 header
		10, 0, 0, 1, 192, 0, 2, 1,
	}, orig[:8]...)
	te := append([]byte{11, 0, 0, 0, 0, 0, 0, 0}, inner...)
	outer := append([]byte{
		0x45, 0, 0, 60, 0, 0, 0, 0, 61, 1, 0, 0, // outer IPv4 header, TTL 61
		203, 0, 113, 1, 10, 0, 0, 1,
	}, te...)
	kind, ipTTL, ident, seq, _, ok := parseReply(outer)
	if !ok || kind != TTLExceeded {
		t.Fatalf("parse = kind %v ok %v", kind, ok)
	}
	if ipTTL != 61 {
		t.Errorf("outer TTL = %d", ipTTL)
	}
	if ident != 0x1234 || seq != 9 {
		t.Errorf("quoted probe = %x/%d", ident, seq)
	}
	// A truncated time-exceeded still classifies without the quote.
	kind, _, ident, _, _, ok = parseReply(append([]byte{11, 0, 0, 0, 0, 0, 0, 0}, 0x45))
	if !ok || kind != TTLExceeded || ident != 0 {
		t.Errorf("truncated TE = kind %v ident %x ok %v", kind, ident, ok)
	}
	// Unknown ICMP types do not parse.
	if _, _, _, _, _, ok := parseReply([]byte{13, 0, 0, 0, 0, 0, 0, 0}); ok {
		t.Error("timestamp request should not parse")
	}
}

// TestProbeMessageChecksumPerFlow pins the Paris-traceroute invariant: a
// per-flow load balancer hashes ICMP bytes 0-3 (type, code, checksum), so
// those bytes must stay fixed across every probe of a flow, whatever its
// salt, and differ between flows. Every message must still verify, carry
// the salt as its sequence number, and be matched by a time-exceeded
// reply that quotes it.
func TestProbeMessageChecksumPerFlow(t *testing.T) {
	seenSum := map[uint16]uint16{}
	for flow := uint16(0); flow < 64; flow++ {
		var sum uint16
		for salt := uint32(0); salt < 1000; salt++ {
			msg, ident, seq := probeMessage(flow, salt*7919)
			if icmpChecksum(msg) != 0 {
				t.Fatalf("flow %d salt %d: checksum does not verify", flow, salt)
			}
			if msg[0] != 8 || msg[1] != 0 {
				t.Fatalf("flow %d salt %d: not an echo request", flow, salt)
			}
			if seq != uint16(salt*7919) {
				t.Fatalf("flow %d salt %d: sequence %d does not carry the salt", flow, salt, seq)
			}
			got := uint16(msg[2])<<8 | uint16(msg[3])
			if salt == 0 {
				sum = got
				if other, dup := seenSum[sum]; dup {
					t.Fatalf("flows %d and %d share checksum %#04x", other, flow, sum)
				}
				seenSum[sum] = flow
			} else if got != sum {
				t.Fatalf("flow %d: checksum %#04x at salt %d, %#04x at salt 0", flow, got, salt, sum)
			}
			kind, _, rid, rseq, _, ok := parseReply(timeExceeded(msg))
			if !ok || kind != TTLExceeded || rid != ident || rseq != seq {
				t.Fatalf("flow %d salt %d: quoted reply parsed to kind %v %#04x/%d ok %v, sent %#04x/%d",
					flow, salt, kind, rid, rseq, ok, ident, seq)
			}
		}
	}
}

// timeExceeded wraps a probe in the reply a router sends when its TTL
// runs out: an outer IPv4 header, the ICMP time-exceeded header, and the
// probe's own IPv4 header with its first 8 ICMP bytes.
func timeExceeded(probe []byte) []byte {
	out := []byte{
		0x45, 0, 0, 56, 0, 0, 0, 0, 61, 1, 0, 0, // outer IPv4 header, TTL 61
		203, 0, 113, 1, 10, 0, 0, 1,
		11, 0, 0, 0, 0, 0, 0, 0, // time exceeded
		0x45, 0, 0, 36, 0, 0, 0, 0, 1, 1, 0, 0, // quoted IPv4 header
		10, 0, 0, 1, 192, 0, 2, 1,
	}
	return append(out, probe[:8]...)
}
