package dedup

// Real content-defined chunking, as PARSEC's Dedup performs: a rolling
// hash (Rabin-style, here a multiplicative rolling window) scans a
// deterministic synthetic data stream and cuts chunks at content-defined
// boundaries; each chunk is fingerprinted with FNV-64. The simulated
// pipeline charges virtual ticks proportional to the bytes actually
// scanned, so the critical-section arrival pattern follows genuine chunk
// geometry (variable-size chunks, duplicate fingerprints from repeated
// stream content).

// chunker scans a synthetic data stream.
type chunker struct {
	state uint64 // stream generator state
	pos   int
	// repetition: every repeatEvery bytes, the generator replays a block,
	// producing genuine duplicate chunks for the dedup table to hit.
	repeatEvery int
	repeatLen   int
}

const (
	chunkMask = (1 << 11) - 1 // average chunk ≈ 2 KiB
	minChunk  = 256
	maxChunk  = 8192
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	rollPrime = 0x9E3779B97F4A7C15
)

// newChunker seeds a stream.
func newChunker(seed uint64) *chunker {
	if seed == 0 {
		seed = 1
	}
	return &chunker{state: seed, repeatEvery: 64 << 10, repeatLen: 16 << 10}
}

// NextChunk scans until a content-defined boundary and returns the
// chunk's FNV-64 fingerprint and length in bytes.
//
// The stream is pseudo-random data with periodic replayed regions
// (compressible, duplicate-bearing content): at offset phase within each
// repeatEvery period, the first repeatLen bytes depend only on phase, so
// every period emits identical bytes (and identical chunks), and the
// rest come from the xorshift generator. The scan keeps the generator
// state, the period phase and the rolling window in locals, taking the
// position modulo the period once per chunk and writing the stream
// state back once.
func (c *chunker) NextChunk() (fp uint64, length int) {
	fp = fnvOffset
	var win uint64 // rolling hash, restarted every chunk
	state, every, replay := c.state, c.repeatEvery, c.repeatLen
	phase := c.pos % every
	for {
		var b byte
		if phase < replay {
			x := uint64(phase) * rollPrime
			x ^= x >> 29
			b = byte(x)
		} else {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			b = byte(state)
		}
		if phase++; phase == every {
			phase = 0
		}
		length++
		fp = (fp ^ uint64(b)) * fnvPrime
		win = win*rollPrime + uint64(b) + 1
		if length >= minChunk && (win&chunkMask) == chunkMask>>1 || length >= maxChunk {
			break
		}
	}
	c.state = state
	c.pos += length
	return fp, length
}
