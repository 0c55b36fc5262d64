package transport

import (
	"slices"

	"mpcc/internal/sim"
	"mpcc/internal/stats"
)

// arena is transport's share of the engine-scoped object arena
// (sim.Engine.Local): the slabs and free lists for every pooled object of
// every connection on one engine, looked up once at NewConnection. An
// engine is single-threaded, so plain slices need no locking, and distinct
// engines (shard workers, the concurrent simulations of a sweep) never share
// one. Because the arena outlives any connection, a session opened late in a
// run draws the objects and backing arrays that sessions long closed have
// released — down to the Connection, its Subflows and their series buckets
// once its owner has called Recycle — and steady state allocates nothing per
// packet under churn, as for one long-lived connection (guarded by the alloc
// regression tests).
//
// Every object is zeroed on release (a recycled Connection and its Subflows
// on reuse, since a release may still be on the stack) and every recycled
// backing array holds only nil slots at length 0, so which connection used
// an object before cannot influence the next one.
//
// Reference-counting rules:
//
// pktRec — created by transmit with two references: the outstanding slot
// (released when advanceHead passes the record, or by teardown) and the
// network packet carrying it as Meta (netem releases it on a drop via
// ReleaseMeta and retains an extra one per duplication clone via RetainMeta;
// a delivery hands it to the feedback packet that acknowledges the data
// packet, and senderAck releases it once it processed the record). No timer
// holds one: a record carries its RTO deadline. It may outlive its loss
// declaration — what Eifel-style spurious-retransmit repair needs — and its
// connection's Close only while its data or feedback packet is on the path,
// and goes home when that packet arrives or drops.
//
// segment — one reference per queue membership (pending/retx/orphans) plus
// one per pktRec pointing at it. Queue pops transfer the reference to the
// caller (usually straight into a new pktRec); lazily filtered delivered
// segments (nextSegment, migrateFrom, adoptOrphans) release theirs.
//
// monitorInterval — one reference for its openMIs slot (released when
// finalizeMIs consumes it or dropOpenMIs abandons it), one for the pending
// miEndEvent timer (released when it fires: the timer's identity guard
// compares pointers, so the struct must not start a second life before
// then), and one per pktRec charged to it (a late spurious ACK may still
// correct an interval that has already reported).
//
// Connection — its owner's until Recycle, then the network's until the
// last record, segment, monitor interval and revival probe that points at it
// is home (reclaim), then the arena's; each return to the arena advances its
// Generation, which lets a holder past Recycle tell it apart from the next
// owner's connection on the same object.
//
// The per-connection recLive/segLive/miLive gauges (PoolInUse reports the
// first two) count what one connection holds out of the arena; the arena's
// own InUse counts are their sum over every connection the engine ever
// carried.
type arena struct {
	recs  sim.Pool[pktRec]
	segs  sim.Pool[segment]
	mis   sim.Pool[monitorInterval]
	conns sim.Pool[Connection]

	// Backing arrays handed back at teardown (and MI rtt-sample arrays,
	// which also cycle between finalized and freshly opened intervals).
	rtts        arrays[stats.Point]
	outstanding arrays[*pktRec]          // Subflow.outstanding
	openMIs     arrays[*monitorInterval] // Subflow.openMIs
	queues      arrays[*segment]         // segQueue storage
	islands     arrays[interval]         // rangeSet islands
}

type arenaKey struct{}

const poolSlab = 64

func arenaOf(eng *sim.Engine) *arena {
	return eng.Local(arenaKey{}, func() any {
		return &arena{
			recs: sim.Pool[pktRec]{Slab: poolSlab},
			segs: sim.Pool[segment]{Slab: poolSlab},
			mis:  sim.Pool[monitorInterval]{Slab: poolSlab},
			// One at a time: a connection nobody recycles costs exactly
			// its own allocation.
			conns: sim.Pool[Connection]{Slab: 1},
		}
	}).(*arena)
}

// Backing arrays are provisioned like objects: arraysPerSlab arrays of
// arrayCap entries per allocation. An array that outgrows its arrayCap
// entries reallocates on its own (append never writes past a carved
// array's capacity) and the grown array is what goes home. Nothing outside
// arrays reads an array's capacity except to tell a held array from none,
// so where an array came from cannot reach behaviour.
const (
	arrayCap      = 64
	arraysPerSlab = 16
)

// arrays is a free list of emptied backing arrays of T.
type arrays[T any] struct{ free [][]T }

// get returns a recycled array, or a fresh one carved from a new slab, at
// length 0.
func (p *arrays[T]) get() []T {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return s
	}
	slab := make([]T, arrayCap*arraysPerSlab)
	p.free = slices.Grow(p.free, arraysPerSlab-1)
	for i := arraysPerSlab - 1; i > 0; i-- {
		p.free = append(p.free, slab[i*arrayCap:i*arrayCap:(i+1)*arrayCap])
	}
	return slab[0:0:arrayCap]
}

// put takes back s's backing array, grown or not. The caller has already
// cleared every slot that held a pointer; an array without capacity is
// dropped.
func (p *arrays[T]) put(s []T) {
	if cap(s) > 0 {
		p.free = append(p.free, s[:0])
	}
}

func (c *Connection) acquireRec() *pktRec {
	c.recLive++
	return c.arena.recs.Get()
}

// releaseRec drops one reference; the last one recycles the record and
// releases its segment and monitor-interval references.
func (c *Connection) releaseRec(rec *pktRec) {
	rec.refs--
	if rec.refs > 0 {
		return
	}
	if rec.refs < 0 {
		panic("transport: pktRec over-released")
	}
	seg, mi := rec.seg, rec.mi
	*rec = pktRec{}
	c.recLive--
	c.arena.recs.Put(rec)
	c.releaseSeg(seg)
	if mi != nil {
		c.releaseMI(mi)
	}
	c.reclaim()
}

// RetainMeta and ReleaseMeta let netem adjust the reference count for
// link-level events the endpoints cannot see: a duplication clone sharing
// this record as Meta, and a drop destroying a reference.
func (rec *pktRec) RetainMeta() { rec.refs++ }

func (rec *pktRec) ReleaseMeta() { rec.sf.conn.releaseRec(rec) }

func (c *Connection) acquireSeg(off int64, size int) *segment {
	seg := c.arena.segs.Get()
	seg.off, seg.size, seg.refs = off, size, 1
	c.segLive++
	return seg
}

// releaseSeg drops one reference; the last one recycles the segment.
func (c *Connection) releaseSeg(seg *segment) {
	if seg == nil {
		return
	}
	seg.refs--
	if seg.refs > 0 {
		return
	}
	if seg.refs < 0 {
		panic("transport: segment over-released")
	}
	*seg = segment{}
	c.segLive--
	c.arena.segs.Put(seg)
}

// retireMI takes mi out of openMIs (finalized or abandoned): nothing samples
// into it or reads its rtt samples again, so their array goes home now, and
// the slot's reference is dropped.
func (c *Connection) retireMI(mi *monitorInterval) {
	c.arena.rtts.put(mi.rtt)
	mi.rtt = nil
	c.releaseMI(mi)
}

// releaseMI drops one reference; the last one recycles the interval (out
// of line, so that the per-packet call inlines).
func (c *Connection) releaseMI(mi *monitorInterval) {
	mi.refs--
	if mi.refs <= 0 {
		c.freeMI(mi)
	}
}

func (c *Connection) freeMI(mi *monitorInterval) {
	if mi.refs < 0 {
		panic("transport: monitorInterval over-released")
	}
	*mi = monitorInterval{}
	c.miLive--
	c.arena.mis.Put(mi)
	c.reclaim()
}
