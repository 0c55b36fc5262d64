package transport

import "testing"

// TestArrays pins the backing-array pool's contract: cold arrays are carved
// arraysPerSlab at a time with arrayCap entries each and never overlap, a
// handed-back array (grown or not) is the next one out, empty at length 0,
// and an array without capacity is not kept.
func TestArrays(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, p *arrays[*int])
	}{{
		name: "cold get",
		run: func(t *testing.T, p *arrays[*int]) {
			if s := p.get(); len(s) != 0 || cap(s) != arrayCap {
				t.Fatalf("cold get: len %d cap %d, want 0 and %d", len(s), cap(s), arrayCap)
			}
		},
	}, {
		name: "carved arrays do not alias",
		run: func(t *testing.T, p *arrays[*int]) {
			var slab [arraysPerSlab][]*int
			for i := range slab {
				s, mark := p.get(), new(int)
				for len(s) < cap(s) {
					s = append(s, mark)
				}
				slab[i] = s
			}
			for i, s := range slab {
				for j, v := range s {
					if v != s[0] {
						t.Fatalf("slot %d of array %d was overwritten by a later one", j, i)
					}
				}
			}
		},
	}, {
		name: "grown array comes back next, empty",
		run: func(t *testing.T, p *arrays[*int]) {
			p.get() // carve a slab, so the free list is not empty
			s := p.get()
			for i := 0; i < 3*arrayCap; i++ {
				s = append(s, new(int))
			}
			clear(s)
			p.put(s)
			got := p.get()
			if len(got) != 0 || cap(got) != cap(s) || &got[:1][0] != &s[0] {
				t.Fatalf("get after put: len %d cap %d, want the grown array (cap %d) at length 0", len(got), cap(got), cap(s))
			}
			for i, v := range got[:cap(got)] {
				if v != nil {
					t.Fatalf("slot %d of a recycled array is not nil", i)
				}
			}
		},
	}, {
		name: "no capacity is dropped",
		run: func(t *testing.T, p *arrays[*int]) {
			p.put(nil)
			p.put(make([]*int, 0))
			if len(p.free) != 0 {
				t.Fatalf("%d arrays kept after putting back nil and an empty slice", len(p.free))
			}
		},
	}, {
		name: "one allocation per slab",
		run: func(t *testing.T, p *arrays[*int]) {
			var held [][]*int // so that no array can live on the stack
			if n := testing.AllocsPerRun(10, func() {
				held = held[:0]
				for i := 0; i < arraysPerSlab; i++ {
					held = append(held, p.get())
				}
			}); n != 1 {
				t.Fatalf("%d gets from an empty pool allocate %.1f times, want 1", arraysPerSlab, n)
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, new(arrays[*int])) })
	}
}
