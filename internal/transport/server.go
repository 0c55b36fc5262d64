package transport

// Server models one accept point's resource limits: a cap on concurrent
// connections and a shared receive-buffer byte budget that every admitted
// connection's rcvBuf is charged against. Admission control sheds load
// here — an open-loop workload does not slow down when the server
// saturates, so the server must refuse what it cannot hold. Like a
// Connection, a Server belongs to exactly one engine and needs no locking.
type Server struct {
	Name        string
	MaxConns    int
	BudgetBytes int64

	active    int
	usedBytes int64

	peakActive int
	peakBytes  int64

	accepted uint64
	rejected uint64
}

// AdmitResult is the outcome of an admission attempt.
type AdmitResult int

const (
	// AdmitOK means the connection was admitted and its resources reserved.
	AdmitOK AdmitResult = iota
	// RejectConns means the concurrent-connection cap was hit.
	RejectConns
	// RejectBudget means the shared receive-buffer budget was exhausted.
	RejectBudget
)

func (r AdmitResult) String() string {
	switch r {
	case AdmitOK:
		return "ok"
	case RejectConns:
		return "conns"
	case RejectBudget:
		return "budget"
	default:
		return "unknown"
	}
}

// NewServer returns a server with the given caps. maxConns ≤ 0 or
// budgetBytes ≤ 0 disables that limit.
func NewServer(name string, maxConns int, budgetBytes int64) *Server {
	return &Server{Name: name, MaxConns: maxConns, BudgetBytes: budgetBytes}
}

// Admit tries to reserve one connection slot plus rcvBuf bytes of the
// receive budget. On AdmitOK the reservation is held until Release.
func (sv *Server) Admit(rcvBuf int64) AdmitResult {
	if sv.MaxConns > 0 && sv.active >= sv.MaxConns {
		sv.rejected++
		return RejectConns
	}
	if sv.BudgetBytes > 0 && sv.usedBytes+rcvBuf > sv.BudgetBytes {
		sv.rejected++
		return RejectBudget
	}
	sv.active++
	sv.usedBytes += rcvBuf
	sv.accepted++
	if sv.active > sv.peakActive {
		sv.peakActive = sv.active
	}
	if sv.usedBytes > sv.peakBytes {
		sv.peakBytes = sv.usedBytes
	}
	return AdmitOK
}

// Release returns an admitted connection's slot and buffer reservation.
func (sv *Server) Release(rcvBuf int64) {
	sv.active--
	sv.usedBytes -= rcvBuf
	if sv.active < 0 || sv.usedBytes < 0 {
		panic("transport: Server.Release without matching Admit")
	}
}

// PeakActive returns the high-water concurrent-connection count.
func (sv *Server) PeakActive() int { return sv.peakActive }

// PeakBytes returns the high-water receive-budget reservation; admission
// control guarantees PeakBytes ≤ BudgetBytes (a simtest oracle re-checks).
func (sv *Server) PeakBytes() int64 { return sv.peakBytes }

// Accepted returns how many connections have ever been admitted.
func (sv *Server) Accepted() uint64 { return sv.accepted }

// Rejected returns total admission rejections (both causes).
func (sv *Server) Rejected() uint64 { return sv.rejected }
