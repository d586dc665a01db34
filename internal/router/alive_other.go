//go:build !unix

package router

import "net"

// idleAlive cannot peek here, so it vouches for no connection: every member
// exchange dials afresh.
func idleAlive(net.Conn) bool { return false }
