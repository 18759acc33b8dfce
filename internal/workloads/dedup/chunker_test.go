package dedup

import "testing"

func TestChunkerBoundsAndDeterminism(t *testing.T) {
	a := newChunker(7)
	b := newChunker(7)
	for i := 0; i < 500; i++ {
		fpA, lenA := a.NextChunk()
		fpB, lenB := b.NextChunk()
		if fpA != fpB || lenA != lenB {
			t.Fatalf("chunk %d: nondeterministic (%x,%d) vs (%x,%d)", i, fpA, lenA, fpB, lenB)
		}
		if lenA < minChunk || lenA > maxChunk {
			t.Fatalf("chunk %d length %d outside [%d,%d]", i, lenA, minChunk, maxChunk)
		}
	}
}

func TestChunkerAverageSize(t *testing.T) {
	c := newChunker(3)
	total := 0
	const n = 2000
	for i := 0; i < n; i++ {
		_, l := c.NextChunk()
		total += l
	}
	avg := total / n
	// Content-defined cut mask targets ~2 KiB; accept a broad band.
	if avg < 512 || avg > 6144 {
		t.Fatalf("average chunk %d bytes, want ~2048", avg)
	}
}

func TestChunkerProducesDuplicates(t *testing.T) {
	// The replayed stream regions must yield repeated fingerprints — the
	// property the dedup table exists for.
	c := newChunker(11)
	seen := map[uint64]int{}
	for i := 0; i < 3000; i++ {
		fp, _ := c.NextChunk()
		seen[fp]++
	}
	dups := 0
	for _, n := range seen {
		if n > 1 {
			dups += n - 1
		}
	}
	if dups == 0 {
		t.Fatal("no duplicate fingerprints in 3000 chunks — replay regions broken")
	}
	if dups > 2900 {
		t.Fatalf("nearly everything duplicate (%d) — stream degenerate", dups)
	}
}

func TestChunkerSeedsDiffer(t *testing.T) {
	a := newChunker(1)
	b := newChunker(2)
	same := 0
	for i := 0; i < 100; i++ {
		fpA, _ := a.NextChunk()
		fpB, _ := b.NextChunk()
		if fpA == fpB {
			same++
		}
	}
	// Replay regions may coincide; unique regions must not all collide.
	if same > 60 {
		t.Fatalf("streams with different seeds nearly identical: %d/100", same)
	}
}

// refChunker is the byte-at-a-time chunker the register-resident
// NextChunk replaced, kept as its bit-identical reference.
type refChunker struct {
	state                  uint64
	win                    uint64
	pos                    int
	repeatEvery, repeatLen int
}

func (c *refChunker) nextByte() byte {
	phase := c.pos % c.repeatEvery
	if phase < c.repeatLen {
		x := uint64(phase) * rollPrime
		x ^= x >> 29
		return byte(x)
	}
	c.state ^= c.state << 13
	c.state ^= c.state >> 7
	c.state ^= c.state << 17
	return byte(c.state)
}

func (c *refChunker) NextChunk() (fp uint64, length int) {
	fp = fnvOffset
	c.win = 0
	for {
		b := c.nextByte()
		c.pos++
		length++
		fp = (fp ^ uint64(b)) * fnvPrime
		c.win = c.win*rollPrime + uint64(b) + 1
		if length >= minChunk && (c.win&chunkMask) == chunkMask>>1 {
			return fp, length
		}
		if length >= maxChunk {
			return fp, length
		}
	}
}

// TestChunkerMatchesReference: the register-resident chunker must emit
// exactly the reference's fingerprints and lengths and leave the same
// stream position and generator state, chunk after chunk.
func TestChunkerMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		c := newChunker(seed*0x9E3779B97F4A7C15 + seed)
		r := &refChunker{state: c.state, repeatEvery: c.repeatEvery, repeatLen: c.repeatLen}
		for i := 0; i < 3000; i++ {
			fp, n := c.NextChunk()
			rfp, rn := r.NextChunk()
			if fp != rfp || n != rn || c.pos != r.pos || c.state != r.state {
				t.Fatalf("seed %d chunk %d: (%x, %d, pos %d, state %x), reference (%x, %d, pos %d, state %x)",
					seed, i, fp, n, c.pos, c.state, rfp, rn, r.pos, r.state)
			}
		}
	}
}
