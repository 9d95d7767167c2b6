package pagedstore

import "encoding/binary"

// keyFilter is a standard Bloom filter over the store's curve keys,
// persisted in the pruning footer. A negative answer is exact
// (the key is certainly absent), so a point lookup whose key fails the
// filter can skip the store without touching disk; a positive answer
// sends the lookup to the page fences as before. Sized at
// filterBitsPerKey bits per key with filterHashes probes, the false
// positive rate is under 1%.
type keyFilter struct {
	k     uint32
	words []uint64
}

const (
	filterBitsPerKey = 10
	filterHashes     = 7
	// filterMaxProbe bounds how many keys of a narrow range a cursor's
	// Plan probes through the filter before falling back to the fences: a
	// range of at most this many cells can be proven empty key by key.
	filterMaxProbe = 8
)

// buildFilter constructs the filter for the given keys (duplicates are
// fine). It returns nil for an empty key set.
func buildFilter(keys []uint64) *keyFilter {
	if len(keys) == 0 {
		return nil
	}
	words := (len(keys)*filterBitsPerKey + 63) / 64
	f := &keyFilter{k: filterHashes, words: make([]uint64, words)}
	for _, key := range keys {
		f.set(key)
	}
	return f
}

// probe derives the i-th bit index for key by double hashing: two
// independent 64-bit hashes from the splitmix64 finalizer, the second
// forced odd so every probe stride visits all bit positions.
func (f *keyFilter) probe(key uint64, i uint32) uint64 {
	h1 := mix64(key)
	h2 := mix64(key^0x9e3779b97f4a7c15) | 1
	bits := uint64(len(f.words)) * 64
	return (h1 + uint64(i)*h2) % bits
}

func (f *keyFilter) set(key uint64) {
	for i := uint32(0); i < f.k; i++ {
		b := f.probe(key, i)
		f.words[b/64] |= 1 << (b % 64)
	}
}

// mayContain reports whether key could be in the set; false is exact.
func (f *keyFilter) mayContain(key uint64) bool {
	for i := uint32(0); i < f.k; i++ {
		b := f.probe(key, i)
		if f.words[b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	return true
}

// marshal renders the filter section of the footer: k, word count,
// words, all little endian. A nil filter marshals as an empty section
// header (k = 0, words = 0).
func (f *keyFilter) marshal() []byte {
	k, n := uint32(0), 0
	if f != nil {
		k, n = f.k, len(f.words)
	}
	out := make([]byte, 8+8*n)
	binary.LittleEndian.PutUint32(out[0:], k)
	binary.LittleEndian.PutUint32(out[4:], uint32(n))
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(out[8+8*i:], f.words[i])
	}
	return out
}

// unmarshalFilter parses a filter section; it returns nil (no filter)
// for an empty section and false for a malformed one.
func unmarshalFilter(b []byte) (*keyFilter, bool) {
	if len(b) < 8 {
		return nil, false
	}
	k := binary.LittleEndian.Uint32(b[0:])
	n := int(binary.LittleEndian.Uint32(b[4:]))
	if len(b) < 8+8*n {
		return nil, false
	}
	if k == 0 || n == 0 {
		if k != 0 || n != 0 {
			return nil, false // half-empty header
		}
		return nil, true
	}
	if k > 64 {
		return nil, false
	}
	f := &keyFilter{k: k, words: make([]uint64, n)}
	for i := range f.words {
		f.words[i] = binary.LittleEndian.Uint64(b[8+8*i:])
	}
	return f, true
}
