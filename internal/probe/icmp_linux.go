//go:build linux

// One raw ICMP socket carries every exchange, so the mutex must span the
// send/receive round trip: interleaved writers would cross-match replies.
// Serialized live I/O is the backend's documented contract.

package probe

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"github.com/hobbitscan/hobbit/internal/iputil"
)

// ICMPNetwork is a raw-socket backend implementing Network against the
// live IPv4 Internet using only the standard library. It requires
// CAP_NET_RAW (or root) and is provided for operators reproducing the
// study against real targets; the laboratory pipeline uses SimNetwork.
//
// Flow identifiers are encoded in the ICMP checksum-affecting payload the
// way Paris traceroute keeps per-flow hashes stable: the ICMP identifier
// carries the flow ID so per-flow load balancers hash probes of one flow
// identically.
type ICMPNetwork struct {
	mu      sync.Mutex
	conn    net.PacketConn
	rawFD   int
	ident   uint16
	Timeout time.Duration
}

// NewICMPNetwork opens a raw ICMP socket. The caller must have
// CAP_NET_RAW.
func NewICMPNetwork() (*ICMPNetwork, error) {
	conn, err := net.ListenPacket("ip4:icmp", "0.0.0.0")
	if err != nil {
		return nil, fmt.Errorf("probe: opening raw ICMP socket: %w", err)
	}
	n := &ICMPNetwork{
		conn:    conn,
		rawFD:   -1,
		ident:   uint16(os.Getpid() & 0xffff),
		Timeout: 2 * time.Second,
	}
	if ipc, ok := conn.(*net.IPConn); ok {
		if sc, err := ipc.SyscallConn(); err == nil {
			sc.Control(func(fd uintptr) { n.rawFD = int(fd) })
		}
	}
	return n, nil
}

// Close releases the socket.
func (n *ICMPNetwork) Close() error { return n.conn.Close() }

func (n *ICMPNetwork) setTTL(ttl int) error {
	if n.rawFD < 0 {
		return fmt.Errorf("probe: raw fd unavailable for IP_TTL")
	}
	return syscall.SetsockoptInt(n.rawFD, syscall.IPPROTO_IP, syscall.IP_TTL, ttl)
}

// echoRequest builds an ICMP echo request whose identifier is the flow ID
// (kept constant per flow so per-flow hashes are stable) and whose
// sequence number carries the salt.
func echoRequest(ident, seq uint16) []byte {
	msg := make([]byte, 8+8)
	msg[0] = 8 // echo request
	binary.BigEndian.PutUint16(msg[4:], ident)
	binary.BigEndian.PutUint16(msg[6:], seq)
	copy(msg[8:], "hobbit!!")
	csum := icmpChecksum(msg)
	binary.BigEndian.PutUint16(msg[2:], csum)
	return msg
}

func icmpChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// parseReply interprets a received datagram, stripping the IPv4 header if
// the kernel delivered it, and classifies echo replies and TTL-exceeded
// messages. It returns the sender-visible TTL of the outer IP header when
// available.
func parseReply(buf []byte) (kind Kind, ipTTL int, ident, seq uint16, from iputil.Addr, ok bool) {
	// Strip an IPv4 header if present (raw sockets deliver it).
	if len(buf) >= 20 && buf[0]>>4 == 4 {
		ihl := int(buf[0]&0x0f) * 4
		if ihl >= 20 && len(buf) > ihl {
			ipTTL = int(buf[8])
			buf = buf[ihl:]
		}
	}
	if len(buf) < 8 {
		return 0, 0, 0, 0, 0, false
	}
	switch buf[0] {
	case 0: // echo reply
		return EchoReply, ipTTL, binary.BigEndian.Uint16(buf[4:]), binary.BigEndian.Uint16(buf[6:]), 0, true
	case 11: // time exceeded: payload holds the original IP header + 8 bytes
		inner := buf[8:]
		if len(inner) >= 20 && inner[0]>>4 == 4 {
			ihl := int(inner[0]&0x0f) * 4
			if len(inner) >= ihl+8 {
				orig := inner[ihl:]
				return TTLExceeded, ipTTL, binary.BigEndian.Uint16(orig[4:]), binary.BigEndian.Uint16(orig[6:]), 0, true
			}
		}
		return TTLExceeded, ipTTL, 0, 0, 0, true
	}
	return 0, 0, 0, 0, 0, false
}

// Ping implements Network against the live network.
func (n *ICMPNetwork) Ping(dst iputil.Addr, seq int) (PingResult, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.setTTL(64); err != nil {
		return PingResult{}, false
	}
	return n.exchangeEcho(dst, n.ident, uint16(seq))
}

func (n *ICMPNetwork) exchangeEcho(dst iputil.Addr, ident, seq uint16) (PingResult, bool) {
	o := dst.Octets()
	addr := &net.IPAddr{IP: net.IPv4(o[0], o[1], o[2], o[3])}
	start := time.Now()
	if _, err := n.conn.WriteTo(echoRequest(ident, seq), addr); err != nil {
		return PingResult{}, false
	}
	// One absolute deadline, set once: the kernel enforces it for every
	// read, and the loop condition uses monotonic elapsed time instead of
	// re-reading the wall clock per iteration.
	n.conn.SetReadDeadline(start.Add(n.Timeout))
	buf := make([]byte, 1500)
	for time.Since(start) < n.Timeout {
		nr, _, err := n.conn.ReadFrom(buf)
		if err != nil {
			return PingResult{}, false
		}
		kind, ipTTL, rid, rseq, _, ok := parseReply(buf[:nr])
		if !ok || kind != EchoReply || rid != ident || rseq != seq {
			continue
		}
		return PingResult{RespTTL: ipTTL, RTT: time.Since(start)}, true
	}
	return PingResult{}, false
}

// Probe implements Network against the live network.
func (n *ICMPNetwork) Probe(dst iputil.Addr, ttl int, flowID uint16, salt uint32) Result {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.setTTL(ttl); err != nil {
		return Result{}
	}
	o := dst.Octets()
	addr := &net.IPAddr{IP: net.IPv4(o[0], o[1], o[2], o[3])}
	seq := uint16(salt)
	start := time.Now()
	if _, err := n.conn.WriteTo(echoRequest(flowID, seq), addr); err != nil {
		return Result{}
	}
	// Same single-deadline pattern as exchangeEcho: kernel-enforced
	// absolute deadline, monotonic elapsed-time loop bound.
	n.conn.SetReadDeadline(start.Add(n.Timeout))
	buf := make([]byte, 1500)
	for time.Since(start) < n.Timeout {
		nr, peer, err := n.conn.ReadFrom(buf)
		if err != nil {
			return Result{}
		}
		kind, _, rid, rseq, _, ok := parseReply(buf[:nr])
		if !ok || rid != flowID || rseq != seq {
			continue
		}
		switch kind {
		case EchoReply:
			return Result{Kind: EchoReply, RTT: time.Since(start)}
		case TTLExceeded:
			var from iputil.Addr
			if ipa, isIP := peer.(*net.IPAddr); isIP {
				if v4 := ipa.IP.To4(); v4 != nil {
					from = iputil.Addr(uint32(v4[0])<<24 | uint32(v4[1])<<16 | uint32(v4[2])<<8 | uint32(v4[3]))
				}
			}
			return Result{Kind: TTLExceeded, From: from, RTT: time.Since(start)}
		}
	}
	return Result{}
}
