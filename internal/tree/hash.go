package tree

import "twohot/internal/keys"

// HashTable is the open-addressing hash table that gives the hashed oct-tree
// its name: cells are identified globally by their space-filling-curve key
// and located (whether locally built or fetched from a remote rank) through
// this table rather than through pointers, exactly as in WS93.
type HashTable struct {
	keys  []uint64
	vals  []int32
	mask  uint64
	count int
}

// NewHashTable creates a table sized for about n entries.
func NewHashTable(n int) *HashTable {
	size := 16
	for size < n*2 {
		size <<= 1
	}
	h := &HashTable{
		keys: make([]uint64, size),
		vals: make([]int32, size),
		mask: uint64(size - 1),
	}
	return h
}

// Len returns the number of stored entries.
func (h *HashTable) Len() int { return h.count }

// Put stores key -> val, replacing an existing entry.
func (h *HashTable) Put(key keys.Key, val int32) {
	if key == keys.InvalidKey {
		panic("tree: cannot store the invalid key")
	}
	if float64(h.count+1) > 0.7*float64(len(h.keys)) {
		h.grow()
	}
	slot := key.Hash() & h.mask
	for {
		if h.keys[slot] == 0 {
			h.keys[slot] = uint64(key)
			h.vals[slot] = val
			h.count++
			return
		}
		if h.keys[slot] == uint64(key) {
			h.vals[slot] = val
			return
		}
		slot = (slot + 1) & h.mask
	}
}

// Get returns the value for key and whether it is present.
func (h *HashTable) Get(key keys.Key) (int32, bool) {
	slot := key.Hash() & h.mask
	for {
		k := h.keys[slot]
		if k == 0 {
			return 0, false
		}
		if k == uint64(key) {
			return h.vals[slot], true
		}
		slot = (slot + 1) & h.mask
	}
}

func (h *HashTable) grow() {
	oldKeys, oldVals := h.keys, h.vals
	size := len(oldKeys) * 2
	h.keys = make([]uint64, size)
	h.vals = make([]int32, size)
	h.mask = uint64(size - 1)
	h.count = 0
	for i, k := range oldKeys {
		if k != 0 {
			h.Put(keys.Key(k), oldVals[i])
		}
	}
}
