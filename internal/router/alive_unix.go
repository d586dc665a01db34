//go:build unix

package router

import (
	"net"
	"syscall"
)

// idleAlive reports whether a member connection between exchanges is open
// with nothing to read: a non-blocking MSG_PEEK finds only EAGAIN.
func idleAlive(c net.Conn) bool {
	rc, err := c.(*net.TCPConn).SyscallConn()
	alive := false
	if err == nil {
		err = rc.Read(func(fd uintptr) bool {
			_, _, err := syscall.Recvfrom(int(fd), make([]byte, 1), syscall.MSG_PEEK)
			alive = err == syscall.EAGAIN
			return true // one try, no wait
		})
	}
	return err == nil && alive
}
