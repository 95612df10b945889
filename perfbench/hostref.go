package main

import (
	"fmt"
	"slices"
	"time"
)

// hostRef is a fixed amount of CPU work written in this directory alone,
// against the standard library only, so no change to the program can make
// it faster or slower. Every measured stage is timed together with one
// reference run just before it, and the stage's end-to-end figure is its
// wall time over the reference's, summed over the run. On a shared host,
// spells in which everything runs slower come and go within a run and
// between runs; the two sums see the same spells and their ratio cancels
// them, while a change to the program moves only the numerator.
//
// The work sorts, fills and probes a hash map, and parses a trace-like
// text while stepping a table-driven state machine per line: branchy
// integer code over working sets the size of a core's private caches, like
// the engines' and the simulator's inner loops. It also makes dependent
// reads over a table four times the size of a core's private cache: a
// busy host slows work that misses those caches more than work that hits
// them, and the capacity trace's stages miss them. It runs on the calling
// goroutine alone, so a background task of the runtime or the service
// (sweeping, scavenging, an idle connection) that holds one core for a
// moment does not double its time, as it would a run spread over all
// cores.
type hostRef struct {
	keys  []uint64
	m     map[uint64]uint32
	text  []byte // refLines lines of "r 123\n" or "w 45\n"
	table []uint32
	want  uint64 // checksum of every run
}

// Sizes of the work; a run takes about 20 ms on a 2-vCPU Xeon host.
const (
	refKeys   = 1 << 15 // sorted, and the first half inserted into the map
	refProbes = 1 << 16 // map lookups
	refLines  = 1 << 16 // lines of text parsed and stepped
	refBlocks = 1 << 10 // state-machine blocks the lines address
	refTable  = 1 << 21 // 8 MiB of uint32
	refChase  = 1 << 15 // dependent reads over the table
	refReps   = 2       // times the above per run
	refSeed   = 0x9E3779B97F4A7C15
)

// refStep is the state machine: next state by current state and operation
// (read, write).
var refStep = [4][2]uint8{{1, 3}, {1, 3}, {2, 3}, {1, 3}}

// newHostRef allocates the working set and makes one untimed run, whose
// checksum every later run must reproduce.
func newHostRef() *hostRef {
	h := &hostRef{
		keys:  make([]uint64, refKeys),
		m:     make(map[uint64]uint32, refKeys/2),
		table: make([]uint32, refTable),
	}
	x := uint64(refSeed)
	for k := 0; k < refLines; k++ {
		x = xorshift(x)
		h.text = fmt.Appendf(h.text, "%c %d\n", "rw"[x&1], (x>>8)%100000)
	}
	for k := range h.table {
		x = xorshift(x)
		h.table[k] = uint32(x)
	}
	h.want = h.work()
	return h
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// work is one reference run; it returns a checksum.
func (h *hostRef) work() uint64 {
	var sum uint64
	x := uint64(refSeed)
	for r := 0; r < refReps; r++ {
		for k := range h.keys {
			x = xorshift(x)
			h.keys[k] = x
		}
		slices.Sort(h.keys)
		clear(h.m)
		for k, key := range h.keys[:refKeys/2] {
			h.m[key] = uint32(k)
		}
		for k := 0; k < refProbes; k++ {
			x = xorshift(x)
			if v, ok := h.m[h.keys[x%refKeys]]; ok {
				sum += uint64(v)
			}
		}
		sum += h.step()
		idx := uint32(x)
		for k := 0; k < refChase; k++ {
			idx = h.table[(idx^uint32(k))%refTable]
		}
		sum += uint64(idx)
	}
	return sum
}

// step parses the text and steps the state machine once per line.
func (h *hostRef) step() uint64 {
	var state [refBlocks]uint8
	var sum uint64
	op, num := byte(0), uint32(0)
	for _, c := range h.text {
		switch {
		case c >= '0' && c <= '9':
			num = num*10 + uint32(c-'0')
		case c == 'r':
			op = 0
		case c == 'w':
			op = 1
		case c == '\n':
			b := num % refBlocks
			state[b] = refStep[state[b]][op]
			sum += uint64(state[b])
			num = 0
		}
	}
	return sum
}

// run times one reference run, in seconds, and checks its checksum.
func (h *hostRef) run(ck *checker) float64 {
	t0 := time.Now()
	sum := h.work()
	d := time.Since(t0).Seconds()
	ck.op(sum == h.want, "host reference: checksum %x, want %x", sum, h.want)
	return d
}

// samples are one stage's timings over a run: each wall time with the
// reference time measured just before it.
type samples struct{ walls, refs []float64 }

func (s *samples) add(wall, ref float64) {
	s.walls = append(s.walls, wall)
	s.refs = append(s.refs, ref)
}

// ratio is the stage's total wall time over its references' total.
func (s *samples) ratio() float64 { return total(s.walls) / total(s.refs) }

func total(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// describe is a report line's tail: the stage's median and p90 wall time,
// its ratio, the reference's median, and the sample count.
func (s *samples) describe() string {
	return fmt.Sprintf("wall median %.4g s  p90 %.4g s  ratio %.4g  ref median %.4g s  (n=%d)",
		median(s.walls), quantile(s.walls, 0.9), s.ratio(), median(s.refs), len(s.walls))
}
