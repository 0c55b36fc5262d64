package obs

// hotCache is a small set-associative cache in front of a slower resolution
// of (kind, name, subflow) — to a rendered line prefix in the encoder, to a
// series accumulator in the registry. Its size is fixed: a run that churns
// through thousands of names evicts round-robin within a set and costs what
// the slow path costs, while the few dozen sources of an ordinary run each
// hit in two or three compares.
type hotCache[V any] struct {
	victim uint32
	slots  [hotWays << hotSetBits]hotSlot[V]
}

const (
	hotSetBits = 6
	hotWays    = 4
)

type hotKey struct {
	name string
	sf   int32
	kind uint8
}

type hotSlot[V any] struct {
	key  hotKey
	live bool
	val  V
}

// set returns the ways k may live in. The hash reads only the name's
// length and its first and last two bytes (names differ at their ends:
// "mp"/"sp", "flow007"/"flow017"); it picks a set, the full key decides a hit.
func (c *hotCache[V]) set(k hotKey) []hotSlot[V] {
	h := uint32(k.kind) ^ uint32(k.sf)<<8 ^ uint32(len(k.name))<<16
	if n := len(k.name); n > 0 {
		h = (h*31+uint32(k.name[0]))*31 + uint32(k.name[n-1])
		if n > 2 {
			h = h*31 + uint32(k.name[n-2])
		}
	}
	i := h * 0x9E3779B1 >> (32 - hotSetBits) * hotWays
	return c.slots[i : i+hotWays]
}

// get returns k's value, or nil when k is not cached.
func (c *hotCache[V]) get(k hotKey) *V {
	set := c.set(k)
	for i := range set {
		if s := &set[i]; s.key.sf == k.sf && s.key.kind == k.kind && s.key.name == k.name && s.live {
			return &s.val
		}
	}
	return nil
}

// claim gives k the next way of its set and returns the value slot, still
// holding the evicted entry's value, for the caller to overwrite.
func (c *hotCache[V]) claim(k hotKey) *V {
	s := &c.set(k)[c.victim%hotWays]
	c.victim++
	s.key, s.live = k, true
	return &s.val
}
