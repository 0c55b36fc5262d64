package mpcc

import (
	"math"
	"math/rand"

	"mpcc/internal/cc"
	"mpcc/internal/obs"
	"mpcc/internal/sim"
)

// The controller's fixed tuning: §7.1's ω and change bound at 5 % of the
// connection's total rate, the rest from PCC Vivace and the implementation
// notes in DESIGN.md. Every run uses these values; Config holds only what
// varies.
const (
	// MinRateBps is the rate floor and MaxRateBps the rate ceiling: every
	// rate the controller chooses lies in [MinRateBps, MaxRateBps].
	MinRateBps float64 = 0.5e6
	MaxRateBps float64 = 100e9

	// probeFrac is ω expressed as a fraction of the connection's *total*
	// published sending rate (§5.2: "ω is not set to be a fraction of r …
	// but of the connection's total sending rate").
	probeFrac float64 = 0.05
	// boundFrac is the moving-phase change bound, likewise a fraction of
	// the connection's total sending rate.
	boundFrac float64 = 0.05
	// minProbeBps floors ω so probing works at tiny rates.
	minProbeBps float64 = 0.2e6
	// stepConv converts an empirical utility gradient (utility units per
	// Mbps) into a rate step in Mbps.
	stepConv float64 = 2.0
	// maxAmplifier caps the consecutive-move step amplifier.
	maxAmplifier float64 = 8
	// gradEps is the gradient magnitude below which probing concludes the
	// current rate is locally optimal and re-probes.
	gradEps float64 = 0.01
	// latencyDeadband is the floor of the latency-gradient noise filter:
	// slopes within max(latencyDeadband, latencySE·stderr) of zero are
	// treated as zero. Without a filter, per-packet queueing jitter on a
	// shared link reads as a (γ-amplified) latency penalty and latency-mode
	// flows flee an uncongested link; a wide fixed filter would instead
	// hide the r−ω drain signal Vivace's queue control relies on.
	latencyDeadband float64 = 0.005
	// latencySE is the t-test multiplier on the slope's standard error.
	latencySE float64 = 3
	// probePairs is the number of randomized (r+ω, r−ω) MI pairs per
	// probing cycle; Vivace uses 2 (four MIs) to average out measurement
	// noise.
	probePairs int = 2
	// noisePkts scales the statistical tolerance used when deciding that
	// utility "decreased": loss counts are Poisson-ish, so a comparison is
	// only meaningful beyond noisePkts standard deviations (√k lost
	// packets) of the loss terms involved. Zero-loss intervals compare
	// exactly.
	noisePkts float64 = 1.5
)

// Config parameterizes a per-subflow MPCC controller.
type Config struct {
	Params UtilityParams

	InitialRateBps float64 // first-MI sending rate

	// ScaleByOwnRate is an ablation switch (§5.2): when set, the probe step
	// ω and the change bound scale with the subflow's OWN rate instead of
	// the connection total — the variant the paper reports as getting stuck
	// at suboptimal splits.
	ScaleByOwnRate bool
	// LivePublication is an ablation switch (§5.2 remark): when set, the
	// utility reads the siblings' live published rates during gradient
	// estimation instead of the frozen snapshot.
	LivePublication bool
}

// DefaultConfig returns the configuration used throughout the evaluation,
// with the given utility parameters.
func DefaultConfig(p UtilityParams) Config {
	return Config{Params: p, InitialRateBps: 2e6}
}

// Controller state machine phases (§5.2).
type phase int

const (
	phaseStarting phase = iota // slow start: double until utility drops
	phaseProbing               // estimate the utility gradient at r±ω
	phaseMoving                // gradient ascent with amplifier/bound/swing buffer
)

func (p phase) String() string {
	switch p {
	case phaseStarting:
		return "starting"
	case phaseProbing:
		return "probing"
	case phaseMoving:
		return "moving"
	default:
		return "unknown"
	}
}

// Roles a monitor interval can play in the decision process.
type miRole int

const (
	roleFiller  miRole = iota // sent at the base rate while awaiting statistics
	roleStart                 // a slow-start doubling trial
	roleProbeHi               // probing at r+ω
	roleProbeLo               // probing at r−ω
	roleMove                  // a moving-phase step trial
)

type plannedMI struct {
	role miRole
	rate float64 // bps configured for this MI
}

// Controller is the per-subflow MPCC rate controller. It implements
// cc.RateController. A Controller is bound to its connection's Group (for
// rate publication) and optimizes the subflow-specific utility of Eq. 2.
//
// Controllers are driven by a single-threaded simulation engine and are not
// safe for concurrent use.
type Controller struct {
	cfg Config
	grp *Group
	id  int
	rng *rand.Rand

	state phase
	rate  float64 // current base rate, bps

	// Observability: the bus SetProbes handed over, and the connection name
	// and subflow index its events are tagged with. nil keeps emission on
	// the nil-receiver fast path.
	probes *obs.Bus
	flow   string
	sf     int

	// planned mirrors, in order, the MIs the transport has started; the
	// n-th OnMIComplete corresponds to planned[n] (completions arrive in
	// MI order). It is a FIFO consumed through plannedHead and compacted in
	// place, so the handful of MIs in flight reuse one small backing array
	// instead of reallocating on every NextRate.
	planned     []plannedMI
	plannedHead int
	plannedBuf  [16]plannedMI // planned's initial storage

	// others is the snapshot C of sibling published rates (bps), frozen for
	// the duration of a gradient-estimation cycle (§5.2 remark).
	others float64

	// slow start
	prevRate    float64
	prevUtility float64
	prevTol     float64
	haveBase    bool
	awaiting    int // decision MIs in flight

	// probing
	probeOmega   float64 // bps
	probeIssued  int     // trial MIs issued this cycle (0..2·probePairs)
	probeFirstHi bool    // whether the first trial of the current pair is r+ω
	probeHiU     float64 // accumulated utility of the r+ω trials
	probeLoU     float64 // accumulated utility of the r−ω trials
	probeHiRate  float64
	probeLoRate  float64
	probeGot     int
	probeTol     float64  // accumulated noise tolerance across trials
	probeRetry   []miRole // probe trials to re-issue after an app-limited MI

	// moving
	dir        float64 // +1 or −1
	amp        float64
	consec     int     // consecutive same-direction successful moves
	bestU      float64 // best utility seen in this moving run
	bestTol    float64 // noise tolerance of the bestU measurement
	bestRate   float64 // rate at which bestU was observed, bps
	lastU      float64
	lastRate   float64 // bps at which lastU was measured
	swingBound float64 // Mbps cap on the next step after an overshoot; 0 = none
	moveIssued bool

	next *Controller // the Group's chain of controllers
}

// New returns a controller for one subflow. grp must be the connection's
// shared Group; the controller joins it. rng drives probe-order
// randomization and must be the simulation's deterministic source. After
// grp.Reset, New rebuilds one of grp's controllers in place.
func New(cfg Config, grp *Group, rng *rand.Rand) *Controller {
	if !cfg.Params.Valid() {
		panic("mpcc: invalid utility parameters")
	}
	c := grp.reuse
	if c != nil {
		grp.reuse = c.next
	} else {
		c = &Controller{next: grp.ctls}
		grp.ctls = c
	}
	retry, next := c.probeRetry[:0], c.next
	*c = Controller{
		cfg:        cfg,
		grp:        grp,
		id:         grp.Join(),
		rng:        rng,
		state:      phaseStarting,
		rate:       cfg.InitialRateBps,
		amp:        1,
		probeRetry: retry,
		next:       next,
	}
	c.planned = c.plannedBuf[:0]
	grp.Publish(c.id, c.rate)
	return c
}

// NextRate implements cc.RateController: it is called at each MI boundary
// and returns the pacing rate for the new interval. It also publishes the
// chosen rate to the group (the rate-publication point).
func (c *Controller) NextRate(now, srtt sim.Time) float64 {
	var p plannedMI
	switch c.state {
	case phaseStarting:
		if c.awaiting > 0 {
			p = plannedMI{roleFiller, c.rate}
		} else {
			if c.haveBase {
				c.prevRate = c.rate
				c.rate = c.clamp(c.rate * 2)
			}
			p = plannedMI{roleStart, c.rate}
			c.awaiting++
		}
	case phaseProbing:
		p = c.nextProbeMI()
	case phaseMoving:
		if c.moveIssued {
			p = plannedMI{roleFiller, c.rate}
		} else {
			p = plannedMI{roleMove, c.rate}
			c.moveIssued = true
			c.awaiting++
		}
	}
	c.planned = append(c.planned, p)
	c.grp.Publish(c.id, p.rate)
	c.probes.MIDecision(now, c.flow, c.sf, c.state.String(), p.rate)
	return p.rate
}

func (c *Controller) nextProbeMI() plannedMI {
	if len(c.probeRetry) > 0 {
		role := c.probeRetry[0]
		c.probeRetry = c.probeRetry[:copy(c.probeRetry, c.probeRetry[1:])]
		c.awaiting++
		if role == roleProbeHi {
			return plannedMI{roleProbeHi, c.probeHiRate}
		}
		return plannedMI{roleProbeLo, c.probeLoRate}
	}
	if c.probeIssued == 0 {
		// New probing cycle: snapshot siblings and compute the probe rates.
		c.others = c.grp.TotalExcept(c.id)
		base := c.grp.Total()
		if c.cfg.ScaleByOwnRate {
			base = c.rate
		}
		c.probeOmega = math.Max(minProbeBps, probeFrac*base)
		hi := c.clamp(c.rate + c.probeOmega)
		lo := c.clamp(c.rate - c.probeOmega)
		if hi-lo < 1 { // degenerate at the rate floor/ceiling: nudge apart
			hi = c.clamp(c.rate + minProbeBps)
			lo = c.clamp(hi - 2*minProbeBps)
		}
		c.probeHiRate, c.probeLoRate = hi, lo
		c.probeHiU, c.probeLoU, c.probeTol = 0, 0, 0
	}
	if c.probeIssued < 2*probePairs {
		// Each pair's order is randomized (hi-lo or lo-hi) so queueing
		// carry-over between adjacent MIs does not bias the estimate.
		if c.probeIssued%2 == 0 {
			c.probeFirstHi = c.rng.Intn(2) == 1
		}
		hiTurn := c.probeFirstHi == (c.probeIssued%2 == 0)
		c.probeIssued++
		c.awaiting++
		if hiTurn {
			return plannedMI{roleProbeHi, c.probeHiRate}
		}
		return plannedMI{roleProbeLo, c.probeLoRate}
	}
	return plannedMI{roleFiller, c.rate}
}

// OnMIComplete implements cc.RateController. Statistics arrive in MI order;
// the controller matches them to its planned roles FIFO.
func (c *Controller) OnMIComplete(st cc.MIStats) {
	if c.plannedHead == len(c.planned) {
		return // completion for an MI planned before a reset; ignore
	}
	p := c.planned[c.plannedHead]
	c.plannedHead++
	if c.plannedHead >= 8 && c.plannedHead*2 >= len(c.planned) {
		n := copy(c.planned, c.planned[c.plannedHead:])
		c.planned, c.plannedHead = c.planned[:n], 0
	}
	if p.role == roleFiller {
		return
	}
	c.awaiting--
	if st.Ignore {
		// The decision MI carried no traffic; retry the decision.
		c.retry(p)
		return
	}
	u := c.utilityOf(p.rate, st)
	c.probes.UtilitySample(st.End, c.flow, c.sf, c.state.String(), p.rate, u)
	switch p.role {
	case roleStart:
		c.onStartComplete(p, st, u)
	case roleProbeHi:
		c.probeHiU += u
		c.probeTol += c.noiseTol(p.rate, st)
		c.probeGot++
		c.maybeDecideProbe()
	case roleProbeLo:
		c.probeLoU += u
		c.probeTol += c.noiseTol(p.rate, st)
		c.probeGot++
		c.maybeDecideProbe()
	case roleMove:
		c.onMoveComplete(p, st, u)
	}
}

func (c *Controller) retry(p plannedMI) {
	switch p.role {
	case roleStart:
		// Undo the doubling so the re-issued trial lands at the same rate.
		if c.haveBase {
			c.rate = c.prevRate
		}
	case roleProbeHi, roleProbeLo:
		// Re-issue just this trial; the rest of the cycle stands.
		c.probeRetry = append(c.probeRetry, p.role)
	case roleMove:
		c.moveIssued = false
	}
}

// noiseTol returns the statistical uncertainty of the MI's utility stemming
// from its loss measurement: the loss count k over n packets carries ≈√k of
// sampling noise, each lost packet swinging the utility by β·total/n. An MI
// with zero observed loss has an exact utility (the reward term is
// deterministic), so its tolerance is zero. Comparisons add the tolerances
// of both samples involved.
func (c *Controller) noiseTol(rateBps float64, st cc.MIStats) float64 {
	pkts := float64(st.BytesSent) / 1500
	if pkts < 1 {
		pkts = 1
	}
	lost := float64(st.BytesLost) / 1500
	if lost <= 0 {
		return 0
	}
	totalMbps := (c.others + rateBps) / 1e6
	if c.state == phaseStarting {
		totalMbps = (c.grp.TotalExcept(c.id) + rateBps) / 1e6
	}
	return c.cfg.Params.Beta * totalMbps * noisePkts * math.Sqrt(lost) / pkts
}

func (c *Controller) onStartComplete(p plannedMI, st cc.MIStats, u float64) {
	appLimited := st.SendRate < 0.5*p.rate
	if c.haveBase && u < c.prevUtility-(c.noiseTol(p.rate, st)+c.prevTol) {
		// First utility decrease: revert to the previous rate and probe.
		c.rate = c.prevRate
		c.enterProbing()
		return
	}
	c.prevUtility = u
	c.prevTol = c.noiseTol(p.rate, st)
	c.haveBase = true
	if appLimited || c.rate >= MaxRateBps {
		// No point doubling past what the application offers.
		c.enterProbing()
	}
}

func (c *Controller) maybeDecideProbe() {
	if c.probeGot < 2*probePairs {
		return
	}
	n := float64(probePairs)
	c.probeGot = 0
	c.probeIssued = 0
	dMbps := (c.probeHiRate - c.probeLoRate) / 1e6
	if dMbps <= 0 {
		return
	}
	grad := (c.probeHiU - c.probeLoU) / n / dMbps
	if math.Abs(grad) < gradEps {
		// Locally flat: stay at the current rate and probe again.
		return
	}
	c.dir = 1
	if grad < 0 {
		c.dir = -1
	}
	c.lastU = (c.probeHiU + c.probeLoU) / (2 * n)
	c.lastRate = c.rate
	c.bestU = c.lastU
	c.bestTol = c.probeTol / (2 * n)
	c.bestRate = c.rate
	c.amp = 1
	c.consec = 0
	c.state = phaseMoving
	c.applyStep(math.Abs(grad))
}

func (c *Controller) onMoveComplete(p plannedMI, st cc.MIStats, u float64) {
	c.moveIssued = false
	// Compare against the best utility of this moving run: anchoring at the
	// best (rather than the previous MI) keeps per-step measurement noise
	// from ratcheting the rate away one small step at a time. The revert
	// target is the PREVIOUS step's rate, not the anchor's — a "best"
	// utility measured while a deep buffer was silently filling must not
	// become a rate to return to.
	if u < c.bestU-(c.noiseTol(p.rate, st)+c.bestTol) {
		lastStepMbps := math.Abs(p.rate-c.lastRate) / 1e6
		c.swingBound = math.Max(lastStepMbps/2, minProbeBps/1e6)
		c.rate = c.lastRate
		c.enterProbing()
		return
	}
	if p.rate == c.lastRate {
		// Pinned at the rate floor/ceiling: nothing left to learn here.
		c.enterProbing()
		return
	}
	if u > c.bestU {
		c.bestU = u
		c.bestTol = c.noiseTol(p.rate, st)
		c.bestRate = p.rate
	}
	// Improved: continue in this direction with an amplified step sized by
	// the fresh empirical gradient.
	dMbps := (p.rate - c.lastRate) / 1e6
	grad := 0.0
	if dMbps != 0 {
		grad = (u - c.lastU) / dMbps
	}
	c.lastU = u
	c.lastRate = p.rate
	c.rate = p.rate
	c.amp = math.Min(c.amp*2, maxAmplifier)
	c.consec++
	if c.swingBound > 0 {
		c.swingBound *= 2 // gradually release the swing buffer
	}
	c.applyStep(math.Abs(grad))
}

// applyStep moves the base rate one gradient-ascent step in c.dir. The
// change bound follows Vivace's dynamic boundary: it starts at boundFrac of
// the connection's total rate and grows by another boundFrac for each
// consecutive same-direction move, so sustained gradients translate into
// exponential ramps while a single noisy MI stays tightly bounded.
func (c *Controller) applyStep(gradMag float64) {
	totalMbps := c.grp.Total() / 1e6
	if c.cfg.ScaleByOwnRate {
		totalMbps = c.rate / 1e6
	}
	stepMbps := stepConv * gradMag * c.amp
	// Dynamic change bound, growth capped at 4× the base fraction: enough
	// for an exponential ramp, small enough that a deep buffer's delayed
	// loss signal cannot let the rate slam far past capacity first.
	growth := float64(1 + c.consec)
	if growth > 4 {
		growth = 4
	}
	bound := boundFrac * growth * totalMbps
	minStep := minProbeBps / 1e6
	if bound < minStep {
		bound = minStep
	}
	if stepMbps > bound {
		stepMbps = bound
	}
	if c.swingBound > 0 && stepMbps > c.swingBound {
		stepMbps = c.swingBound
	}
	if stepMbps < minStep {
		stepMbps = minStep
	}
	c.rate = c.clamp(c.rate + c.dir*stepMbps*1e6)
}

// OnSubflowDown implements cc.FailureAware: the transport's failure detector
// declared the subflow dead. The published rate is excluded from the group's
// totals so sibling probe steps and change bounds stop scaling against a
// phantom rate.
func (c *Controller) OnSubflowDown() {
	c.grp.SetAlive(c.id, false)
}

// OnSubflowUp implements cc.FailureAware: a probe got through and the
// transport is reviving the subflow. All learning state predates the outage
// and describes a network that no longer exists, so the controller discards
// it — including utility history a moving run might otherwise trust — and
// re-enters slow start at the initial rate (§5.2's starting state).
func (c *Controller) OnSubflowUp() {
	c.grp.SetAlive(c.id, true)
	c.state = phaseStarting
	c.rate = c.cfg.InitialRateBps
	// The transport discards the failed subflow's open MIs, so completions
	// for pre-failure plans can never arrive: forget them.
	c.planned, c.plannedHead = c.planned[:0], 0
	c.others = 0
	c.prevRate, c.prevUtility, c.prevTol = 0, 0, 0
	c.haveBase = false
	c.awaiting = 0
	c.probeOmega, c.probeIssued, c.probeGot = 0, 0, 0
	c.probeHiU, c.probeLoU, c.probeTol = 0, 0, 0
	c.probeRetry = c.probeRetry[:0]
	c.dir, c.amp, c.consec = 0, 1, 0
	c.bestU, c.bestTol, c.bestRate = 0, 0, 0
	c.lastU, c.lastRate = 0, 0
	c.swingBound = 0
	c.moveIssued = false
	c.grp.Publish(c.id, c.rate)
}

func (c *Controller) enterProbing() {
	c.state = phaseProbing
	c.probeIssued = 0
	c.probeGot = 0
	c.awaiting = 0
	c.moveIssued = false
	c.probeRetry = c.probeRetry[:0]
	c.probeHiU, c.probeLoU, c.probeTol = 0, 0, 0
}

// utilityOf evaluates Eq. 2 for an MI configured at rateBps, with the frozen
// sibling snapshot when one is active (probing/moving) and the live board
// otherwise.
func (c *Controller) utilityOf(rateBps float64, st cc.MIStats) float64 {
	others := c.others
	if c.state == phaseStarting || c.cfg.LivePublication {
		others = c.grp.TotalExcept(c.id)
	}
	x := rateBps
	// If the application couldn't fill the configured rate, judge what was
	// actually sent.
	if st.SendRate > 0 && st.SendRate < 0.9*rateBps {
		x = st.SendRate
	}
	grad := st.RTTGradient
	dead := latencyDeadband
	if se := latencySE * st.RTTGradientSE; se > dead {
		dead = se
	}
	if grad < dead && grad > -dead {
		grad = 0
	}
	return c.cfg.Params.SubflowUtility(others/1e6, x/1e6, st.LossRate, grad)
}

func (c *Controller) clamp(r float64) float64 {
	if r < MinRateBps {
		return MinRateBps
	}
	if r > MaxRateBps {
		return MaxRateBps
	}
	return r
}

// SetProbes attaches the observability bus the controller emits MI decisions
// and utility samples into, tagging each event with flow (the connection
// name) and sf (the subflow it drives, which is not its Group id when each
// subflow has a Group of its own). Implements cc.ProbeSetter. nil detaches.
func (c *Controller) SetProbes(b *obs.Bus, flow string, sf int) {
	c.probes, c.flow, c.sf = b, flow, sf
}
