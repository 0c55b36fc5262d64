package transport

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRangeSetInOrder(t *testing.T) {
	var r rangeSet
	if adv := r.add(0, 100); adv != 100 {
		t.Fatalf("adv = %d", adv)
	}
	if adv := r.add(100, 50); adv != 50 {
		t.Fatalf("adv = %d", adv)
	}
	if r.contiguous() != 150 || r.buffered() != 0 {
		t.Fatalf("state: next=%d buffered=%d", r.contiguous(), r.buffered())
	}
}

func TestRangeSetOutOfOrder(t *testing.T) {
	var r rangeSet
	r.add(100, 100) // island
	if r.contiguous() != 0 || r.buffered() != 100 {
		t.Fatalf("next=%d buffered=%d", r.contiguous(), r.buffered())
	}
	if adv := r.add(0, 100); adv != 200 {
		t.Fatalf("filling the hole advanced %d, want 200", adv)
	}
	if r.buffered() != 0 {
		t.Fatalf("buffered = %d", r.buffered())
	}
}

func TestRangeSetDuplicatesAndOverlaps(t *testing.T) {
	var r rangeSet
	r.add(0, 100)
	if adv := r.add(0, 100); adv != 0 {
		t.Fatalf("duplicate advanced %d", adv)
	}
	if adv := r.add(50, 100); adv != 50 {
		t.Fatalf("overlap advanced %d, want 50", adv)
	}
	r.add(300, 50)
	r.add(250, 100) // overlaps island on both sides
	if r.buffered() != 100 {
		t.Fatalf("buffered = %d, want 100", r.buffered())
	}
	if !contains(&r, 320) || contains(&r, 200) {
		t.Fatal("contains broken")
	}
}

func TestRangeSetIslandMergeChain(t *testing.T) {
	var r rangeSet
	r.add(200, 100)
	r.add(400, 100)
	r.add(600, 100)
	// One segment bridging all three islands.
	r.add(150, 500)
	if r.buffered() != 550 {
		t.Fatalf("buffered = %d, want 550 (150..700)", r.buffered())
	}
	if adv := r.add(0, 150); adv != 700 {
		t.Fatalf("prefix fill advanced %d, want 700", adv)
	}
}

// Property: any arrival order of a permutation of segments yields the same
// final state (next == total, no islands), and advances sum to the total.
func TestQuickRangeSetPermutations(t *testing.T) {
	f := func(seed uint32, n8 uint8) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 1 + int(n8%24)
		perm := rng.Perm(n)
		var r rangeSet
		var advanced int64
		for _, i := range perm {
			advanced += r.add(int64(i)*100, 100)
		}
		return r.contiguous() == int64(n)*100 && r.buffered() == 0 && advanced == int64(n)*100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

// Property: with random overlapping adds, contains() agrees with a naive
// bitmap model.
func TestQuickRangeSetVsBitmap(t *testing.T) {
	f := func(seed uint32) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		const universe = 400
		var r rangeSet
		model := make([]bool, universe)
		for k := 0; k < 30; k++ {
			off := rng.Intn(universe - 10)
			size := 1 + rng.Intn(40)
			if off+size > universe {
				size = universe - off
			}
			r.add(int64(off), size)
			for i := off; i < off+size; i++ {
				model[i] = true
			}
		}
		for i := 0; i < universe; i++ {
			if contains(&r, int64(i)) != model[i] {
				return false
			}
		}
		// contiguous() must equal the model's prefix length.
		prefix := 0
		for prefix < universe && model[prefix] {
			prefix++
		}
		return r.contiguous() == int64(prefix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

// contains reports whether the byte at off has arrived: the query the
// property tests check a rangeSet against their bitmap model with.
func contains(r *rangeSet, off int64) bool {
	if off < r.next {
		return true
	}
	for _, iv := range r.intervals {
		if off >= iv.start && off < iv.end {
			return true
		}
		if iv.start > off {
			break
		}
	}
	return false
}
