package cache

// ICache models the instruction cache: 64 KByte, 2-way set associative,
// 32-byte lines, 1-cycle hits, and a fixed miss penalty during which the
// front end stalls. Per the paper's assumption, servicing instruction-cache
// misses never delays data-cache misses, so the instruction cache is an
// independent unit with its own path to memory.
type ICache struct {
	// lines holds the tag store set-major, iAssoc entries per set (one flat
	// pointer-free allocation instead of a slice per set).
	lines       []line
	setMask     uint64
	missPenalty int64
	useClock    int64

	// lastLA remembers the line touched by the most recent access (noLine
	// before the first). Sequential fetch hits the same line several times
	// in a row, and a repeat access to the globally most-recently-used line
	// can skip both the probe and the LRU touch: the line already orders
	// after every other line in its set, so dropping the redundant touch
	// leaves the relative last-use order — the only thing LRU victim
	// selection reads — identical, and therefore the miss sequence identical.
	lastLA uint64

	Accesses int64
	Misses   int64
}

// The instruction cache's fixed geometry: 64 KByte of 32-byte lines, two
// per set.
const (
	iSizeBytes = 64 << 10
	iAssoc     = 2
	iLineShift = 5 // log2 of the 32-byte line
	iSets      = iSizeBytes >> iLineShift / iAssoc

	// noLine is a line address no fetch produces (byte addresses shifted
	// right by iLineShift stay below it).
	noLine = ^uint64(0)
)

// NewICache builds the paper's instruction cache with the given fixed miss
// penalty in cycles.
func NewICache(missPenalty int) *ICache {
	return &ICache{
		lines:       make([]line, iSets*iAssoc),
		setMask:     iSets - 1,
		missPenalty: int64(missPenalty),
		lastLA:      noLine,
	}
}

// Fetch probes the cache for the instruction at byte address addr at cycle
// now. On a hit it returns 0. On a miss it begins the line fill and returns
// readyAt = now + the miss penalty: the front end must stall until cycle
// readyAt, after which the line is present. The repeat-line hit is small
// enough to inline into the fetch loop; everything else is fetchLine.
func (c *ICache) Fetch(addr uint64, now int64) (readyAt int64) {
	c.Accesses++
	if la := addr >> iLineShift; la != c.lastLA {
		return c.fetchLine(la, now)
	}
	return 0
}

// fetchLine probes the tag store for line address la and fills it on a miss.
func (c *ICache) fetchLine(la uint64, now int64) (readyAt int64) {
	si := int(la&c.setMask) * iAssoc
	s := c.lines[si : si+iAssoc]
	for i := range s {
		if s[i].valid && s[i].tag == la {
			c.useClock++
			s[i].lastUse = c.useClock
			c.lastLA = la
			return 0
		}
	}
	c.Misses++
	victim := &s[0]
	for i := range s {
		if !s[i].valid {
			victim = &s[i]
			break
		}
		if s[i].lastUse < victim.lastUse {
			victim = &s[i]
		}
	}
	victim.valid = true
	victim.tag = la
	c.useClock++
	victim.lastUse = c.useClock
	c.lastLA = la
	return now + c.missPenalty
}
