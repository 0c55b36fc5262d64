package netem

import "mpcc/internal/sim"

// TokenBucket meters a byte stream against a rate/burst contract: tokens
// (bytes) refill continuously at the contract rate up to the bucket depth,
// and each packet spends its size in tokens. Two disciplines share the
// model. A policer (Conforms) drops nonconforming packets outright — loss
// with zero added delay, the non-queue-building regime a latency-gradient
// controller cannot see coming. A shaper (Borrow) instead lets the balance
// go negative and defers the packet until the deficit refills, converting
// the same contract into queueing delay.
//
// The zero-burst degenerate cases follow directly: a zero-depth policer
// drops every packet (the balance can never cover one), while a zero-depth
// shaper degenerates to pure CBR spacing at the contract rate.
type TokenBucket struct {
	rateBps float64
	burst   int
	tokens  float64  // bytes available; negative = borrowed ahead (shaper)
	last    sim.Time // time of the last refill
}

// NewTokenBucket returns a bucket that starts full at now. rateBps is the
// refill rate in bits/s, burstBytes the bucket depth in bytes.
func NewTokenBucket(rateBps float64, burstBytes int, now sim.Time) *TokenBucket {
	if rateBps <= 0 {
		panic("netem: token-bucket rate must be positive")
	}
	if burstBytes < 0 {
		panic("netem: negative token-bucket burst")
	}
	return &TokenBucket{rateBps: rateBps, burst: burstBytes, tokens: float64(burstBytes), last: now}
}

// refill credits tokens for the time since the last update, capped at the
// bucket depth. Negative balances (shaper borrowing) refill through zero.
func (tb *TokenBucket) refill(now sim.Time) {
	if now > tb.last {
		tb.tokens += tb.rateBps * (now - tb.last).Seconds() / 8
		if tb.tokens > float64(tb.burst) {
			tb.tokens = float64(tb.burst)
		}
		tb.last = now
	}
}

// Conforms is the policer-mode take: if the bucket holds size bytes of
// tokens they are consumed and the packet conforms; otherwise the balance
// is left untouched and the packet is nonconforming (strict policing — an
// oversized packet does not drain the bucket).
func (tb *TokenBucket) Conforms(now sim.Time, size int) bool {
	tb.refill(now)
	if tb.tokens >= float64(size) {
		tb.tokens -= float64(size)
		return true
	}
	return false
}

// Borrow is the shaper-mode take: size bytes are always debited, driving
// the balance negative when the bucket is short, and the returned time is
// when the deficit will have refilled — the packet's earliest conforming
// serialization start. Consecutive calls return non-decreasing times, so
// shaped packets keep their arrival order.
func (tb *TokenBucket) Borrow(now sim.Time, size int) sim.Time {
	tb.refill(now)
	tb.tokens -= float64(size)
	if tb.tokens >= 0 {
		return now
	}
	return now + sim.FromSeconds(-tb.tokens*8/tb.rateBps)
}

// SetPolicer attaches a token-bucket policer at the link's ingress:
// packets exceeding the rate/burst contract are dropped with
// obs.CausePolicer, with zero added delay and no queue occupancy — loss that
// carries no latency warning. The bucket starts full. rateBps <= 0 detaches.
func (l *Link) SetPolicer(rateBps float64, burstBytes int) {
	if rateBps <= 0 {
		l.policer = nil
		return
	}
	l.policer = NewTokenBucket(rateBps, burstBytes, l.eng.Now())
}

// Policer returns the policer contract and whether one is attached.
func (l *Link) Policer() (rateBps float64, burstBytes int, on bool) {
	if l.policer == nil {
		return 0, 0, false
	}
	return l.policer.rateBps, l.policer.burst, true
}

// SetShaper attaches a token-bucket shaper: packets exceeding the contract
// are not dropped but have their serialization start deferred until their
// token deficit refills, so the excess shows up as queueing delay instead
// of loss. The bucket starts full. rateBps <= 0 detaches.
func (l *Link) SetShaper(rateBps float64, burstBytes int) {
	if rateBps <= 0 {
		l.shaper = nil
		return
	}
	l.shaper = NewTokenBucket(rateBps, burstBytes, l.eng.Now())
}
