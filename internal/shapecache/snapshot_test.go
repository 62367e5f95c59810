package shapecache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"testing"
)

func checksumOf(body []byte) uint64 { return crc64.Checksum(body, crcTable) }

// The snapshot container's contract: byte payloads round-trip through
// Snapshot/Restore, and every corruption mode — truncation, bit flips,
// wrong version, wrong namespace, trailing garbage — rejects the whole
// file and leaves the cache untouched.

func encBytes(v any) ([]byte, error)           { return append([]byte(nil), v.([]byte)...), nil }
func decBytes(_ string, p []byte) (any, error) { return append([]byte(nil), p...), nil }

func fillCache(t *testing.T, c *Cache, n int) map[string][]byte {
	t.Helper()
	want := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		v := []byte(fmt.Sprintf("payload-%d", i))
		c.Put(key, v, int64(len(v)))
		want[key] = v
	}
	return want
}

func snapshotOf(t *testing.T, c *Cache, namespace string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Snapshot(&buf, namespace, encBytes); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := New(Config{Shards: 4, MaxEntries: 1024})
	want := fillCache(t, src, 100)
	snap := snapshotOf(t, src, "test-ns")

	dst := New(Config{Shards: 4, MaxEntries: 1024})
	n, err := dst.Restore(bytes.NewReader(snap), "test-ns", decBytes)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if n != len(want) {
		t.Fatalf("restored %d entries, want %d", n, len(want))
	}
	if got := dst.Len(); got != len(want) {
		t.Fatalf("resident %d entries, want %d", got, len(want))
	}
	for key, v := range want {
		got, ok := dst.Get(key)
		if !ok {
			t.Fatalf("key %q missing after restore", key)
		}
		if !bytes.Equal(got.([]byte), v) {
			t.Fatalf("key %q: got %q, want %q", key, got, v)
		}
	}
	// Cost accounting survives the round trip.
	if ss, ds := src.Stats(), dst.Stats(); ss.Bytes != ds.Bytes {
		t.Fatalf("restored bytes %d, want %d", ds.Bytes, ss.Bytes)
	}
}

func TestSnapshotEmptyCache(t *testing.T) {
	src := New(Config{})
	snap := snapshotOf(t, src, "ns")
	dst := New(Config{})
	n, err := dst.Restore(bytes.NewReader(snap), "ns", decBytes)
	if err != nil || n != 0 {
		t.Fatalf("Restore empty: n=%d err=%v", n, err)
	}
}

func TestSnapshotSkipsUnencodable(t *testing.T) {
	src := New(Config{})
	src.Put("k1", []byte("keep"), 4)
	src.Put("k2", "not-bytes", 9)
	var buf bytes.Buffer
	err := src.Snapshot(&buf, "ns", func(v any) ([]byte, error) {
		b, ok := v.([]byte)
		if !ok {
			return nil, nil // skip
		}
		return b, nil
	})
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	dst := New(Config{})
	n, err := dst.Restore(&buf, "ns", decBytes)
	if err != nil || n != 1 {
		t.Fatalf("Restore: n=%d err=%v", n, err)
	}
}

// TestSnapshotSkipsOversizeKeys: a resident entry whose key Restore
// would refuse is left out of the snapshot, so the file restores every
// other entry.
func TestSnapshotSkipsOversizeKeys(t *testing.T) {
	src := New(Config{})
	big := string(make([]byte, MaxKeyLen+1))
	src.Put(big, []byte("big"), 1)
	src.Put("small", []byte("keep"), 1)
	dst := New(Config{})
	n, err := dst.Restore(bytes.NewReader(snapshotOf(t, src, "ns")), "ns", decBytes)
	if err != nil || n != 1 {
		t.Fatalf("Restore: n=%d err=%v, want 1 entry", n, err)
	}
	if _, ok := dst.Get("small"); !ok {
		t.Fatal("the short key was not restored")
	}
	if _, ok := src.Get(big); !ok {
		t.Fatal("the oversize entry left the live cache")
	}
}

// restoreRejected asserts the snapshot bytes are rejected with the
// given sentinel and that the target cache stays empty.
func restoreRejected(t *testing.T, snap []byte, namespace string, want error) {
	t.Helper()
	dst := New(Config{})
	n, err := dst.Restore(bytes.NewReader(snap), namespace, decBytes)
	if err == nil {
		t.Fatalf("Restore accepted corrupted snapshot (%d entries)", n)
	}
	if want != nil && !errors.Is(err, want) {
		t.Fatalf("Restore error = %v, want %v", err, want)
	}
	if dst.Len() != 0 {
		t.Fatalf("cache not empty after rejected restore: %d entries", dst.Len())
	}
}

func TestSnapshotCorruption(t *testing.T) {
	src := New(Config{Shards: 2})
	fillCache(t, src, 32)
	snap := snapshotOf(t, src, "ns")

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 7, len(snap) / 2, len(snap) - 1} {
			restoreRejected(t, snap[:cut], "ns", nil)
		}
	})
	t.Run("empty", func(t *testing.T) {
		restoreRejected(t, nil, "ns", ErrSnapshotTruncated)
	})
	t.Run("bitflip", func(t *testing.T) {
		for _, pos := range []int{0, 9, len(snap) / 2, len(snap) - 2} {
			bad := append([]byte(nil), snap...)
			bad[pos] ^= 0x40
			restoreRejected(t, bad, "ns", nil)
		}
	})
	t.Run("checksum", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[len(bad)/2] ^= 1
		restoreRejected(t, bad, "ns", ErrSnapshotChecksum)
	})
	t.Run("wrong-namespace", func(t *testing.T) {
		restoreRejected(t, snap, "other-ns", ErrSnapshotNamespace)
	})
	t.Run("wrong-magic", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[0] = 'X'
		// Re-sign so only the magic is wrong, not the checksum.
		resign(bad)
		restoreRejected(t, bad, "ns", ErrSnapshotMagic)
	})
	t.Run("wrong-version", func(t *testing.T) {
		bad := append([]byte(nil), snap...)
		bad[8] = snapshotVersion + 1 // single-byte uvarint
		resign(bad)
		restoreRejected(t, bad, "ns", ErrSnapshotVersion)
	})
	t.Run("oversize-key", func(t *testing.T) {
		// Restore refuses a file listing a key over MaxKeyLen.
		body := append([]byte(nil), snapshotMagic[:]...)
		body = binary.AppendUvarint(body, snapshotVersion)
		body = binary.AppendUvarint(body, 2)
		body = append(body, "ns"...)
		body = binary.AppendUvarint(body, 1)
		body = binary.AppendUvarint(body, MaxKeyLen+1)
		body = append(body, make([]byte, MaxKeyLen+1)...)
		body = binary.AppendUvarint(body, 1) // cost
		body = binary.AppendUvarint(body, 1)
		body = append(body, 'x')
		restoreRejected(t, binary.BigEndian.AppendUint64(body, checksumOf(body)), "ns", ErrSnapshotPayload)
	})
	t.Run("duplicate-key", func(t *testing.T) {
		// Snapshot never lists a key twice; a file that does is refused
		// rather than restored as fewer entries than it lists.
		body := append([]byte(nil), snapshotMagic[:]...)
		body = binary.AppendUvarint(body, snapshotVersion)
		body = binary.AppendUvarint(body, 2)
		body = append(body, "ns"...)
		body = binary.AppendUvarint(body, 2)
		for i := 0; i < 2; i++ {
			body = binary.AppendUvarint(body, 3)
			body = append(body, "key"...)
			body = binary.AppendUvarint(body, 1) // cost
			body = binary.AppendUvarint(body, 1)
			body = append(body, byte('a'+i))
		}
		restoreRejected(t, binary.BigEndian.AppendUint64(body, checksumOf(body)), "ns", ErrSnapshotPayload)
	})
	t.Run("payload-error", func(t *testing.T) {
		dst := New(Config{})
		n, err := dst.Restore(bytes.NewReader(snap), "ns", func(string, []byte) (any, error) {
			return nil, errors.New("decode refused")
		})
		if err == nil || !errors.Is(err, ErrSnapshotPayload) {
			t.Fatalf("Restore: n=%d err=%v, want ErrSnapshotPayload", n, err)
		}
		if dst.Len() != 0 {
			t.Fatalf("cache not empty after payload rejection: %d", dst.Len())
		}
	})
}

// resign recomputes the trailing checksum after a deliberate body edit,
// so tests exercise the field checks rather than the checksum.
func resign(snap []byte) {
	body := snap[:len(snap)-8]
	sum := checksumOf(body)
	for i := 0; i < 8; i++ {
		snap[len(snap)-8+i] = byte(sum >> (56 - 8*i))
	}
}

func TestSnapshotRestoreHonorsBounds(t *testing.T) {
	src := New(Config{Shards: 1, MaxEntries: 64})
	fillCache(t, src, 64)
	snap := snapshotOf(t, src, "ns")

	dst := New(Config{Shards: 1, MaxEntries: 16})
	n, err := dst.Restore(bytes.NewReader(snap), "ns", decBytes)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if n != 64 {
		t.Fatalf("restored %d, want 64 (eviction happens after insert)", n)
	}
	if got := dst.Len(); got != 16 {
		t.Fatalf("resident %d, want the 16-entry bound", got)
	}
}

func TestShed(t *testing.T) {
	c := New(Config{Shards: 2, MaxEntries: 1024})
	fillCache(t, c, 100)
	before := c.Len()
	evicted := c.Shed(0.5)
	after := c.Len()
	if evicted == 0 || before-after != evicted {
		t.Fatalf("Shed(0.5): evicted=%d before=%d after=%d", evicted, before, after)
	}
	if after > 55 || after < 45 {
		t.Fatalf("Shed(0.5) left %d of %d", after, before)
	}
	if got := c.Shed(1); got != after {
		t.Fatalf("Shed(1) evicted %d, want %d", got, after)
	}
	if c.Len() != 0 {
		t.Fatalf("cache not empty after Shed(1): %d", c.Len())
	}
	if c.Shed(0.5) != 0 {
		t.Fatal("Shed on empty cache evicted something")
	}
	st := c.Stats()
	if st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("accounting nonzero after full shed: %+v", st)
	}
}
