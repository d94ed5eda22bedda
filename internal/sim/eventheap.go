package sim

// eventHeap is an inlined 4-ary min-heap of events ordered by (at, seq).
// It replaces container/heap, whose interface-based API boxes every pushed
// event into an `any` — one heap allocation per event on the simulator's
// hottest path. Since (at, seq) is a total order (seq is unique), any
// correct min-heap pops events in exactly the same sequence, so swapping
// the heap implementation cannot change simulation results.
//
// The 4-ary layout halves the tree depth of a binary heap: pushes compare
// against fewer ancestors and the wider nodes keep sift-down traffic in
// adjacent cache lines. Sifts move a hole instead of swapping: each level
// copies one 48-byte record, and the sifted event is written once, into
// its final slot. Events hold no pointers, so vacated slots need no
// clearing.
type eventHeap struct {
	ev []event
}

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) len() int { return len(h.ev) }

// push inserts e, moving the hole at the tail up toward the root until
// e's parent orders before it.
func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(&e, &h.ev[parent]) {
			break
		}
		h.ev[i] = h.ev[parent]
		i = parent
	}
	h.ev[i] = e
}

// pop removes and returns the minimum event: the tail event fills the hole
// left at the root, sifting down.
func (h *eventHeap) pop() event {
	top := h.ev[0]
	n := len(h.ev) - 1
	if n > 0 {
		h.siftDown(h.ev[n], n)
	}
	h.ev = h.ev[:n]
	return top
}

// siftDown places e in the hole at the root of the first n slots, moving
// the smaller child up while it orders before e.
func (h *eventHeap) siftDown(e event, n int) {
	ev := h.ev[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(&ev[c], &ev[min]) {
				min = c
			}
		}
		if !eventLess(&ev[min], &e) {
			break
		}
		ev[i] = ev[min]
		i = min
	}
	ev[i] = e
}
