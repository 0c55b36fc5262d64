package mpcc

// Group is the per-connection rate-publication board (§5.2, "rate-publication
// points"). At the beginning of each monitor interval every subflow publishes
// its chosen sending rate; sibling subflows snapshot the published rates when
// they begin a gradient-estimation cycle and treat them as constant until the
// cycle completes, so that a subflow's rate decisions reflect changes in its
// own performance rather than in its siblings' rates.
type Group struct {
	rates []float64 // published rate per subflow id, bits/s
	down  []bool    // true while the transport's failure detector holds the subflow dead

	// ctls chains, through Controller.next, every controller New built on
	// the group; after a Reset, reuse is the next one New rebuilds.
	ctls, reuse *Controller
}

// NewGroup returns an empty publication board.
func NewGroup() *Group { return &Group{} }

// Reset empties the board for another connection, keeping its storage and
// its controllers: New rebuilds them in place before allocating. The caller
// promises that nothing drives them any more (their connection has shut
// down).
func (g *Group) Reset() {
	g.rates, g.down = g.rates[:0], g.down[:0]
	g.reuse = g.ctls
}

// Join registers a new subflow and returns its id.
func (g *Group) Join() int {
	g.rates = append(g.rates, 0)
	g.down = append(g.down, false)
	return len(g.rates) - 1
}

// Publish records subflow id's current sending rate in bits/s.
func (g *Group) Publish(id int, rateBps float64) {
	g.rates[id] = rateBps
}

// SetAlive marks subflow id as alive or dead. A dead subflow's published
// rate is excluded from Total and TotalExcept: ω and the moving-phase change
// bound are fractions of the connection's total sending rate (§5.2), and a
// failed subflow sends nothing — scaling siblings' probes against its
// phantom rate would both over-probe and over-bound.
func (g *Group) SetAlive(id int, alive bool) { g.down[id] = !alive }

// Total returns the sum of published rates of live subflows in bits/s — the
// "connection's total sending rate" used to scale probe steps and change
// bounds (§5.2).
func (g *Group) Total() float64 {
	t := 0.0
	for i, r := range g.rates {
		if !g.down[i] {
			t += r
		}
	}
	return t
}

// TotalExcept returns the sum of published rates of every live subflow
// except id (the constant C in Eq. 2).
func (g *Group) TotalExcept(id int) float64 {
	t := 0.0
	for i, r := range g.rates {
		if i != id && !g.down[i] {
			t += r
		}
	}
	return t
}
