package engine

import "math/bits"

// nullBitmap tracks which row positions of a column hold NULL. It is a
// plain bit set; the zero value is an empty bitmap with no nulls.
type nullBitmap struct {
	words []uint64
	count int // number of set bits
}

// grow ensures the bitmap can address positions [0, n).
func (b *nullBitmap) grow(n int) {
	need := (n + 63) / 64
	for len(b.words) < need {
		b.words = append(b.words, 0)
	}
}

// set marks position i as NULL.
func (b *nullBitmap) set(i int) {
	b.grow(i + 1)
	w, bit := i/64, uint(i%64)
	if b.words[w]&(1<<bit) == 0 {
		b.words[w] |= 1 << bit
		b.count++
	}
}

// get reports whether position i is NULL.
func (b *nullBitmap) get(i int) bool {
	w := i / 64
	if w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<uint(i%64)) != 0
}

// anySet reports whether the bitmap has any NULL at all; used as a fast
// path so fully non-null columns skip per-row null checks.
func (b *nullBitmap) anySet() bool { return b.count > 0 }

// wordsInto copies the bits covering positions [start, start+n) into
// out (bit j of out word w = position start+64*w+j), shifting across
// word boundaries when start is unaligned. Bits at positions >= n come
// out zero. The scan kernels use this to mask NULL rows word-wise.
func (b *nullBitmap) wordsInto(start, n int, out []uint64) {
	nw := (n + 63) / 64
	w0, sh := start>>6, uint(start&63)
	for i := 0; i < nw; i++ {
		var w uint64
		if w0+i < len(b.words) {
			w = b.words[w0+i] >> sh
		}
		if sh != 0 && w0+i+1 < len(b.words) {
			w |= b.words[w0+i+1] << (64 - sh)
		}
		out[i] = w
	}
	trimBits(out[:nw], n)
}

// andNotInto clears the bits of out whose positions [start, start+n)
// are set in b — i.e. out &^= b over the window. A no-op when b has no
// set bits.
func (b *nullBitmap) andNotInto(start, n int, out []uint64) {
	if b.count == 0 {
		return
	}
	nw := (n + 63) / 64
	w0, sh := start>>6, uint(start&63)
	for i := 0; i < nw; i++ {
		var w uint64
		if w0+i < len(b.words) {
			w = b.words[w0+i] >> sh
		}
		if sh != 0 && w0+i+1 < len(b.words) {
			w |= b.words[w0+i+1] << (64 - sh)
		}
		out[i] &^= w
	}
}

// appendFrom sets position base+i for every position i set in src.
func (b *nullBitmap) appendFrom(base int, src *nullBitmap) {
	for w, word := range src.words {
		for ; word != 0; word &= word - 1 {
			b.set(base + 64*w + bits.TrailingZeros64(word))
		}
	}
}

// clone returns an independent copy.
func (b *nullBitmap) clone() nullBitmap {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return nullBitmap{words: w, count: b.count}
}
