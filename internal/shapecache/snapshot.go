package shapecache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
)

// Snapshot persistence. A snapshot is the cache's resident entries in a
// self-describing binary file:
//
//	magic     [8]byte  "chortsnp"
//	version   uvarint  format version (snapshotVersion)
//	namespace uvarint-framed bytes (caller-defined payload codec id)
//	count     uvarint
//	count ×   { key uvarint-framed, cost uvarint, payload uvarint-framed }
//	crc       [8]byte  BE CRC-64/ECMA of everything above
//
// The file is verified before a single entry is admitted: magic, format
// version, namespace and the trailing checksum are all checked first,
// and every key and payload is decoded and validated before insertion
// begins. Any failure — including a key over MaxKeyLen or a key listed
// twice — rejects the whole snapshot and leaves the cache exactly as it
// was: for a boot-time restore that means an empty (cold) cache, never
// a partial or corrupted one.
//
// The payload bytes are opaque to this package; the caller supplies the
// value codec, and its namespace string must identify that codec's
// format (bump it on any incompatible change) so a snapshot written by
// an older encoding is rejected rather than misread.

// snapshotVersion is the container format version. Payload format
// changes are the namespace's job; this only moves when the container
// layout above changes. Version 1 framed each entry by a 64-bit hash
// instead of its key.
const snapshotVersion = 2

// MaxKeyLen bounds a key in a snapshot. Snapshot leaves out a resident
// entry with a longer key, and Restore refuses a file that lists one.
const MaxKeyLen = 1 << 20

var snapshotMagic = [8]byte{'c', 'h', 'o', 'r', 't', 's', 'n', 'p'}

// Snapshot rejection causes, distinguishable with errors.Is. A restore
// that fails with any of these leaves the cache untouched.
var (
	ErrSnapshotTruncated = errors.New("shapecache: snapshot truncated")
	ErrSnapshotChecksum  = errors.New("shapecache: snapshot checksum mismatch")
	ErrSnapshotMagic     = errors.New("shapecache: not a shape cache snapshot")
	ErrSnapshotVersion   = errors.New("shapecache: unsupported snapshot version")
	ErrSnapshotNamespace = errors.New("shapecache: snapshot namespace mismatch")
	ErrSnapshotPayload   = errors.New("shapecache: snapshot payload rejected")
)

// snapshotLimits bound a snapshot read so a corrupted length field
// cannot drive allocation: per-field caps, applied before allocating.
const (
	maxSnapshotNamespace = 1 << 10
	maxSnapshotEntries   = 1 << 24
	maxSnapshotPayload   = 1 << 28
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Snapshot writes every resident entry to w, encoding each value with
// encode. An entry whose key is longer than MaxKeyLen or whose encode
// returns (nil, nil) is skipped (it is not snapshottable, and one such
// entry would make the whole file unrestorable); an encode error aborts
// the write. The
// iteration is per-shard consistent (see Stats) — entries inserted or
// evicted concurrently may or may not appear, which is fine for a
// cache: a snapshot is a warm start, not a ledger.
func (c *Cache) Snapshot(w io.Writer, namespace string, encode func(v any) ([]byte, error)) error {
	type rawEntry struct {
		key     string
		cost    int64
		payload []byte
	}
	var entries []rawEntry
	var encErr error
	c.Range(func(key string, v any, cost int64) bool {
		if len(key) > MaxKeyLen {
			return true
		}
		p, err := encode(v)
		if err != nil {
			encErr = err
			return false
		}
		if p == nil {
			return true
		}
		entries = append(entries, rawEntry{key: key, cost: cost, payload: p})
		return true
	})
	if encErr != nil {
		return fmt.Errorf("shapecache: encoding snapshot entry: %w", encErr)
	}

	crc := crc64.New(crcTable)
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	if err := putUvarint(snapshotVersion); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(namespace))); err != nil {
		return err
	}
	if _, err := bw.WriteString(namespace); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(entries))); err != nil {
		return err
	}
	for _, e := range entries {
		if err := putUvarint(uint64(len(e.key))); err != nil {
			return err
		}
		if _, err := bw.WriteString(e.key); err != nil {
			return err
		}
		if err := putUvarint(uint64(e.cost)); err != nil {
			return err
		}
		if err := putUvarint(uint64(len(e.payload))); err != nil {
			return err
		}
		if _, err := bw.Write(e.payload); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	binary.BigEndian.PutUint64(scratch[:8], crc.Sum64())
	_, err := w.Write(scratch[:8])
	return err
}

// Restore reads a snapshot written by Snapshot and inserts its entries.
// The whole file is validated — magic, version, namespace, checksum,
// and every key and payload through decode — before anything is
// inserted, so a failed restore returns (0, err) with the cache
// untouched. Restored entries are subject to the normal bounds: a
// snapshot larger than the cache's configured budget restores the most
// recently written tail and evicts the rest, and a key already resident
// keeps its resident value. Returns the number of entries the snapshot
// held.
func (c *Cache) Restore(r io.Reader, namespace string, decode func(key string, payload []byte) (v any, err error)) (int, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("shapecache: reading snapshot: %w", err)
	}
	if len(data) < len(snapshotMagic)+8 {
		return 0, ErrSnapshotTruncated
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	if crc64.Checksum(body, crcTable) != binary.BigEndian.Uint64(tail) {
		return 0, ErrSnapshotChecksum
	}
	buf := body
	if string(buf[:len(snapshotMagic)]) != string(snapshotMagic[:]) {
		return 0, ErrSnapshotMagic
	}
	buf = buf[len(snapshotMagic):]
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return 0, ErrSnapshotTruncated
		}
		buf = buf[n:]
		return v, nil
	}
	ver, err := readUvarint()
	if err != nil {
		return 0, err
	}
	if ver != snapshotVersion {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrSnapshotVersion, ver, snapshotVersion)
	}
	nsLen, err := readUvarint()
	if err != nil {
		return 0, err
	}
	if nsLen > maxSnapshotNamespace || uint64(len(buf)) < nsLen {
		return 0, ErrSnapshotTruncated
	}
	ns := string(buf[:nsLen])
	buf = buf[nsLen:]
	if ns != namespace {
		return 0, fmt.Errorf("%w: got %q, want %q", ErrSnapshotNamespace, ns, namespace)
	}
	count, err := readUvarint()
	if err != nil {
		return 0, err
	}
	if count > maxSnapshotEntries {
		return 0, fmt.Errorf("%w: %d entries", ErrSnapshotPayload, count)
	}
	// Every entry takes at least three bytes (key, cost and payload
	// lengths), so a count the rest cannot hold is refused before it
	// sizes anything.
	if count > uint64(len(buf))/3 {
		return 0, ErrSnapshotTruncated
	}
	type decEntry struct {
		key  string
		cost int64
		v    any
	}
	entries := make([]decEntry, 0, count)
	seen := make(map[string]bool, count)
	for i := uint64(0); i < count; i++ {
		klen, err := readUvarint()
		if err != nil {
			return 0, err
		}
		if klen > MaxKeyLen {
			return 0, fmt.Errorf("%w: entry %d: %d-byte key", ErrSnapshotPayload, i, klen)
		}
		if uint64(len(buf)) < klen {
			return 0, ErrSnapshotTruncated
		}
		key := string(buf[:klen])
		buf = buf[klen:]
		if seen[key] {
			return 0, fmt.Errorf("%w: entry %d: key listed twice", ErrSnapshotPayload, i)
		}
		seen[key] = true
		cost, err := readUvarint()
		if err != nil {
			return 0, err
		}
		plen, err := readUvarint()
		if err != nil {
			return 0, err
		}
		if plen > maxSnapshotPayload || uint64(len(buf)) < plen {
			return 0, ErrSnapshotTruncated
		}
		v, err := decode(key, buf[:plen])
		if err != nil {
			return 0, fmt.Errorf("%w: entry %d: %v", ErrSnapshotPayload, i, err)
		}
		buf = buf[plen:]
		entries = append(entries, decEntry{key: key, cost: int64(cost), v: v})
	}
	if len(buf) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotPayload, len(buf))
	}
	for _, e := range entries {
		c.Put(e.key, e.v, e.cost)
	}
	return len(entries), nil
}

// Range calls fn for every resident entry, shard by shard under each
// shard's lock, until fn returns false. fn must not call back into the
// cache. The view is per-shard consistent only (see Stats).
func (c *Cache) Range(fn func(key string, v any, cost int64) bool) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		// Walk the LRU list tail-first so a bound-limited Restore of this
		// snapshot keeps the hottest entries (later Puts survive eviction).
		for e := s.tail; e != nil; e = e.prev {
			if !fn(e.key, e.val, e.cost) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}
}

// Shed evicts roughly the given fraction (0..1] of resident entries,
// least recently used first, and returns the number evicted. It is the
// memory-pressure valve: shrinking residency only costs future hits,
// never correctness. Fractions outside (0,1] are clamped; a positive
// fraction evicts at least one entry per non-empty shard.
func (c *Cache) Shed(fraction float64) int {
	if fraction <= 0 {
		return 0
	}
	if fraction > 1 {
		fraction = 1
	}
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := int(float64(len(s.byKey))*fraction + 0.5)
		if n == 0 && len(s.byKey) > 0 {
			n = 1
		}
		for j := 0; j < n && len(s.byKey) > 0; j++ {
			s.evictTail(c)
			total++
		}
		s.mu.Unlock()
	}
	return total
}
