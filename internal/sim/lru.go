package sim

// lruLists keeps one intrusive doubly-linked list of resident blocks per
// cache: the least recently used block at the head, the most recent at the
// tail. Touch, drop and victim choice are O(1), and the links cost 8 bytes
// per (cache, block) pair whatever the capacity. A link holds a block
// index plus one, so the zero value means "none" and a fresh allocation is
// a set of empty lists.
type lruLists struct {
	blocks int
	// head, tail and n are per cache: the first and last block (plus one)
	// and the list length.
	head, tail, n []int32
	// prev and next link cache i's block b at i*blocks+b.
	prev, next []int32
}

// newLRULists returns empty lists for caches × blocks.
func newLRULists(caches, blocks int) *lruLists {
	return &lruLists{
		blocks: blocks,
		head:   make([]int32, caches),
		tail:   make([]int32, caches),
		n:      make([]int32, caches),
		prev:   make([]int32, caches*blocks),
		next:   make([]int32, caches*blocks),
	}
}

// linked reports whether block b is on cache i's list.
func (l *lruLists) linked(i, b int) bool {
	return l.prev[i*l.blocks+b] != 0 || l.head[i] == int32(b+1)
}

// front returns cache i's least recently used block, or -1 when empty.
func (l *lruLists) front(i int) int { return int(l.head[i]) - 1 }

// after returns the block following b on cache i's list, or -1 at the tail.
func (l *lruLists) after(i, b int) int { return int(l.next[i*l.blocks+b]) - 1 }

// unlink removes block b, which must be on cache i's list.
func (l *lruLists) unlink(i, b int) {
	base := i * l.blocks
	k := base + b
	p, n := l.prev[k], l.next[k]
	if p != 0 {
		l.next[base+int(p)-1] = n
	} else {
		l.head[i] = n
	}
	if n != 0 {
		l.prev[base+int(n)-1] = p
	} else {
		l.tail[i] = p
	}
	l.prev[k], l.next[k] = 0, 0
	l.n[i]--
}

// touch moves block b to the most recently used end of cache i's list,
// adding it when absent.
func (l *lruLists) touch(i, b int) {
	if l.tail[i] == int32(b+1) {
		return
	}
	if l.linked(i, b) {
		l.unlink(i, b)
	}
	base := i * l.blocks
	t := l.tail[i]
	l.prev[base+b] = t
	if t != 0 {
		l.next[base+int(t)-1] = int32(b + 1)
	} else {
		l.head[i] = int32(b + 1)
	}
	l.tail[i] = int32(b + 1)
	l.n[i]++
}

// drop removes block b from cache i's list when present.
func (l *lruLists) drop(i, b int) {
	if l.linked(i, b) {
		l.unlink(i, b)
	}
}
