//go:build !unix

package phishnet

import (
	"errors"
	"net/netip"
)

// canRecvNow is false here: UDP.Poll reports that there is nothing to poll,
// and every endpoint keeps its reader goroutine.
const canRecvNow = false

func recvNow(uintptr, []byte) (int, netip.AddrPort, error) {
	return 0, netip.AddrPort{}, errors.ErrUnsupported
}
