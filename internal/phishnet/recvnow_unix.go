//go:build unix

package phishnet

import (
	"net"
	"net/netip"
	"syscall"
)

// canRecvNow says this platform has recvNow.
const canRecvNow = true

// recvNow reads one datagram from the socket fd into buf without ever
// blocking: the net package opens its sockets non-blocking, so an empty one
// is an error (EAGAIN) like any other.
func recvNow(fd uintptr, buf []byte) (int, netip.AddrPort, error) {
	n, sa, err := syscall.Recvfrom(int(fd), buf, 0)
	if err != nil {
		return 0, netip.AddrPort{}, err
	}
	var from netip.AddrPort
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		from = netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(sa.Port))
	case *syscall.SockaddrInet6:
		addr := netip.AddrFrom16(sa.Addr).Unmap()
		if sa.ZoneId != 0 {
			if ifi, err := net.InterfaceByIndex(int(sa.ZoneId)); err == nil {
				addr = addr.WithZone(ifi.Name)
			}
		}
		from = netip.AddrPortFrom(addr, uint16(sa.Port))
	}
	return n, from, nil
}
