package server

import (
	"container/list"
	"sync"

	"ninf/internal/idl"
	"ninf/internal/protocol"
)

// The argument cache keeps large array operands and results resident
// between calls, keyed by content digest, so repeated WAN workloads stop
// re-shipping the same matrices on every Ninf_call.
// It is byte-budgeted (Config.CacheBudget, default off), evicts LRU,
// and ref-counts entries pinned by in-flight calls so eviction can
// never yank an operand mid-dispatch. Entries live keyed by the short
// key Digest.Lo in small buckets; every lookup verifies the full
// 128-bit digest, so a short-key collision costs a bucket scan, never
// a wrong answer.

// cacheEntry is one resident value: its digest, its little-endian
// element bytes, and the pin count of in-flight calls using it.
type cacheEntry struct {
	dig   protocol.Digest
	bytes []byte
	pins  int
	el    *list.Element
}

// argCache is the server's digest-keyed byte-budgeted LRU store.
type argCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	pinned  int64
	lru     *list.List // of *cacheEntry; front = most recently used
	buckets map[uint64][]*cacheEntry

	hits      int64
	misses    int64
	evictions int64
}

func newArgCache(budget int64) *argCache {
	return &argCache{
		budget:  budget,
		lru:     list.New(),
		buckets: make(map[uint64][]*cacheEntry),
	}
}

// cacheStats is a point-in-time counter snapshot for Stats reporting.
type cacheStats struct {
	Hits, Misses, Evictions int64
	PinnedBytes, UsedBytes  int64
	Budget                  int64
}

func (c *argCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		PinnedBytes: c.pinned, UsedBytes: c.used, Budget: c.budget,
	}
}

// findLocked returns the entry for d, verifying the full digest within
// the short-key bucket. Callers hold mu.
func (c *argCache) findLocked(d protocol.Digest) *cacheEntry {
	for _, e := range c.buckets[d.Lo] {
		if e.dig == d {
			return e
		}
	}
	return nil
}

// contains answers a warmth query without pinning or counting: the
// client's digest-status probe must not skew the hit ratio.
func (c *argCache) contains(d protocol.Digest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.findLocked(d) != nil
}

// insert takes ownership of b (little-endian element bytes) under
// digest d, evicting LRU unpinned entries until the budget holds. An
// existing entry is refreshed in place (b dropped); a value larger than
// the whole budget is not cached. Insertion is the only point where a
// partial upload could poison the cache — and it is unreachable for
// one: callers insert only bytes from fully reassembled, CRC-verified
// messages.
func (c *argCache) insert(d protocol.Digest, b []byte) {
	if int64(len(b)) > c.budget || len(b) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.findLocked(d); e != nil {
		c.lru.MoveToFront(e.el)
		return
	}
	for c.used+int64(len(b)) > c.budget {
		if !c.evictOneLocked() {
			return // everything left is pinned; don't cache
		}
	}
	e := &cacheEntry{dig: d, bytes: b}
	e.el = c.lru.PushFront(e)
	c.buckets[d.Lo] = append(c.buckets[d.Lo], e)
	c.used += int64(len(b))
}

// evictOneLocked drops the least-recently-used unpinned entry; false
// means every resident entry is pinned by an in-flight call. Callers
// hold mu.
func (c *argCache) evictOneLocked() bool {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		if e.pins > 0 {
			continue
		}
		c.lru.Remove(el)
		b := c.buckets[e.dig.Lo]
		for i, be := range b {
			if be == e {
				b[i] = b[len(b)-1]
				b = b[:len(b)-1]
				break
			}
		}
		if len(b) == 0 {
			delete(c.buckets, e.dig.Lo)
		} else {
			c.buckets[e.dig.Lo] = b
		}
		c.used -= int64(len(e.bytes))
		c.evictions++
		return true
	}
	return false
}

// resolvePin looks d up and pins the entry for an in-flight call; the
// caller must unpin via unpin (normally through callPins.release).
func (c *argCache) resolvePin(d protocol.Digest) ([]byte, *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.findLocked(d)
	if e == nil {
		c.misses++
		return nil, nil
	}
	c.hits++
	if e.pins == 0 {
		c.pinned += int64(len(e.bytes))
	}
	e.pins++
	c.lru.MoveToFront(e.el)
	return e.bytes, e
}

// get is resolvePin without the pin, for the data-handle fetch path:
// the returned slice stays valid after eviction (eviction drops the
// reference, not the memory), and the caller copies it into the reply
// frame immediately.
func (c *argCache) get(d protocol.Digest) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.findLocked(d)
	if e == nil {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(e.el)
	return e.bytes, true
}

// unpin releases one call's pin on an entry.
func (c *argCache) unpin(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.pins--
	if e.pins == 0 {
		c.pinned -= int64(len(e.bytes))
	}
}

// retainLE inserts already-normalized little-endian bytes, computing
// the digest server-side: the cache never trusts a sender's digest for
// insertion, so a mislabeled upload cannot poison later resolves.
func (c *argCache) retainLE(b []byte) {
	c.insert(protocol.DigestBytesLE(b), b)
}

// retainResults inserts a completed call's large out/inout arrays, so
// a retention-requesting client can reference them by digest from a
// later call on this server (the transaction handle-chaining path).
func (c *argCache) retainResults(info *idl.Info, args []idl.Value, threshold int) {
	for i := range info.Params {
		p := &info.Params[i]
		if !p.Mode.Ships(true) {
			continue
		}
		b, ok := protocol.ValueLEBytes(args[i])
		if !ok || len(b) < threshold {
			continue
		}
		c.retainLE(b)
	}
}

// callPins is one call's view of the cache: it implements
// protocol.DigestResolver for the decode of that call's frames,
// accumulating the entries it pinned so task completion releases them
// all. Decode runs on one goroutine but release can race a concurrent
// shed, so the entry list carries its own lock.
type callPins struct {
	c  *argCache
	mu sync.Mutex
	es []*cacheEntry
}

// ResolveDigest implements protocol.DigestResolver: a hit pins the
// entry until release.
func (p *callPins) ResolveDigest(d protocol.Digest) ([]byte, bool) {
	b, e := p.c.resolvePin(d)
	if e == nil {
		return nil, false
	}
	p.mu.Lock()
	p.es = append(p.es, e)
	p.mu.Unlock()
	return b, true
}

// RetainSegment implements protocol.DigestResolver: uploaded bulk
// segments are normalized to little-endian, digested server-side, and
// inserted, making the next call's digest reference warm.
func (p *callPins) RetainSegment(seg []byte, le bool, elem int) {
	p.c.retainLE(protocol.NormalizeSegmentLE(seg, le, elem))
}

// release unpins everything this call resolved. Idempotent.
func (p *callPins) release() {
	p.mu.Lock()
	es := p.es
	p.es = nil
	p.mu.Unlock()
	for _, e := range es {
		p.c.unpin(e)
	}
}
