// Package transport implements the multipath transport the MPCC kernel
// module runs on: connections composed of subflows, each bound to one
// netem.Path and driven either by a rate-based controller (paced, monitor-
// interval based — MPCC/Vivace, BBR) or a window-based controller
// (ACK-clocked — Reno, Cubic, LIA, OLIA, Balia, wVegas).
//
// The transport provides per-packet acknowledgements (the SACK feedback of
// §3.1), dup-threshold and RTO loss detection, retransmission, monitor-
// interval accounting (goodput, loss rate, RTT gradient), the two MPTCP
// schedulers of §6, and per-connection goodput/latency/FCT collectors.
package transport

// App models the sending application: it owns the new-data supply of a
// connection. Implementations are single-threaded like the rest of the
// simulation.
type App interface {
	// HasData reports whether at least one more byte of new data is
	// available for assignment to a subflow.
	HasData() bool
	// Take consumes up to n bytes of new data and returns the number of
	// bytes actually taken (0 when exhausted).
	Take(n int) int
}

// Bulk is an infinite data source (iperf-style bulk transfer).
type Bulk struct{}

// HasData implements App.
func (Bulk) HasData() bool { return true }

// Take implements App.
func (Bulk) Take(n int) int { return n }

// File is a fixed-size transfer; the connection records its completion time
// when every byte has been acknowledged.
type File struct {
	remaining int64
}

// NewFile returns a File transfer of size bytes.
func NewFile(size int64) *File { return &File{remaining: size} }

// Reset makes f a new transfer of size bytes, so an owner can keep one File
// per session slot instead of allocating one per transfer. A connection
// reads the size when SetApp installs f.
func (f *File) Reset(size int64) { f.remaining = size }

// HasData implements App.
func (f *File) HasData() bool { return f.remaining > 0 }

// Take implements App.
func (f *File) Take(n int) int {
	if int64(n) > f.remaining {
		n = int(f.remaining)
	}
	f.remaining -= int64(n)
	return n
}

// segment is one MSS-sized (or smaller, at a file tail) unit of connection
// data, assigned to exactly one subflow. Retransmissions re-send the same
// segment; delivery is counted once.
type segment struct {
	off       int64
	size      int
	delivered bool
	refs      int32 // pool reference count, see pool.go
}
