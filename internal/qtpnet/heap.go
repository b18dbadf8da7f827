package qtpnet

import (
	"container/heap"
	"time"
)

// connHeap is a min-heap of connections ordered by their next protocol
// deadline (Conn.wakeAt). One heap per shard replaces the
// timer-goroutine-per-connection model, with no timer of its own: the
// shard's loop parks in its socket read until the earliest deadline
// across every multiplexed connection and pops exactly what is due.
//
// All access is guarded by shard.mu. Conn.heapIdx is the element's
// position, -1 when the connection is not scheduled.
type connHeap []*Conn

func (h connHeap) Len() int           { return len(h) }
func (h connHeap) Less(i, j int) bool { return h[i].wakeAt < h[j].wakeAt }
func (h connHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *connHeap) Push(x any)        { c := x.(*Conn); c.heapIdx = len(*h); *h = append(*h, c) }
func (h *connHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	c.heapIdx = -1
	*h = old[:n-1]
	return c
}

// set schedules (or reschedules) c to fire at the given instant.
func (h *connHeap) set(c *Conn, at time.Duration) {
	if c.heapIdx >= 0 {
		if c.wakeAt == at {
			return
		}
		c.wakeAt = at
		heap.Fix(h, c.heapIdx)
		return
	}
	c.wakeAt = at
	heap.Push(h, c)
}

// remove unschedules c if it is scheduled.
func (h *connHeap) remove(c *Conn) {
	if c.heapIdx >= 0 {
		heap.Remove(h, c.heapIdx)
	}
}

// popDue removes and returns the earliest connection if it is due at or
// before now.
func (h *connHeap) popDue(now time.Duration) (*Conn, bool) {
	if len(*h) == 0 || (*h)[0].wakeAt > now {
		return nil, false
	}
	return heap.Pop(h).(*Conn), true
}
