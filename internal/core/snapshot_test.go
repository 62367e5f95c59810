package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math/rand"
	"os"
	"testing"

	"chortle/internal/forest"
	"chortle/internal/network"
	"chortle/internal/shapecache"
)

// Snapshot/restore contract at the core level: a restored cache behaves
// exactly like the warm cache it was written from — same hits, byte-
// identical output — and every corruption mode degrades to a cold
// cache, never to a panic or a wrong hit.

func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type netCase struct {
		name string
		nw   *network.Network
	}
	nets := []netCase{
		{name: "identical", nw: identicalTrees(6)},
		{name: "dag24", nw: randomDAG(rng, 6, 24)},
		{name: "dag40", nw: randomDAG(rng, 8, 40)},
	}
	for k := 3; k <= 5; k++ {
		cache := NewSharedShapeCache(SharedCacheConfig{})
		want := make([]string, len(nets))
		for i, nc := range nets {
			opts := DefaultOptions(k)
			opts.SharedCache = cache
			res, err := Map(nc.nw, opts)
			if err != nil {
				t.Fatalf("K=%d %s warm-up: %v", k, nc.name, err)
			}
			want[i] = blifOf(t, res)
		}
		if cache.Len() == 0 {
			t.Fatalf("K=%d: warm-up published no shapes", k)
		}

		var snap bytes.Buffer
		if err := cache.WriteSnapshot(&snap); err != nil {
			t.Fatalf("K=%d WriteSnapshot: %v", k, err)
		}
		restored := NewSharedShapeCache(SharedCacheConfig{})
		n, err := restored.RestoreSnapshot(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatalf("K=%d RestoreSnapshot: %v", k, err)
		}
		if n != cache.Len() {
			t.Fatalf("K=%d: restored %d shapes, want %d", k, n, cache.Len())
		}

		for i, nc := range nets {
			opts := DefaultOptions(k)
			opts.SharedCache = restored
			res, err := Map(nc.nw, opts)
			if err != nil {
				t.Fatalf("K=%d %s restored run: %v", k, nc.name, err)
			}
			if got := blifOf(t, res); got != want[i] {
				t.Fatalf("K=%d %s: restored-cache BLIF differs from warm", k, nc.name)
			}
			if res.CacheHits == 0 {
				t.Fatalf("K=%d %s: no hits against the restored cache", k, nc.name)
			}
			if res.CacheMisses != 0 {
				t.Fatalf("K=%d %s: %d misses against a fully restored cache", k, nc.name, res.CacheMisses)
			}
		}
	}
}

func TestSnapshotWrongSeedNeverHits(t *testing.T) {
	// A snapshot taken at K=4 restored into a K=5 server must simply
	// never hit: the option prefix of every key differs, so
	// entries are unreachable — present but harmless.
	nw := identicalTrees(6)
	cache := NewSharedShapeCache(SharedCacheConfig{})
	opts := DefaultOptions(4)
	opts.SharedCache = cache
	if _, err := Map(nw, opts); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := cache.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := NewSharedShapeCache(SharedCacheConfig{})
	if _, err := restored.RestoreSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	o5 := DefaultOptions(5)
	o5.SharedCache = restored
	res, err := Map(nw, o5)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 {
		t.Fatalf("K=5 run hit a K=4 snapshot %d times", res.CacheHits)
	}
}

func TestSnapshotCorruptionDegradesToCold(t *testing.T) {
	nw := identicalTrees(8)
	cache := NewSharedShapeCache(SharedCacheConfig{})
	opts := DefaultOptions(4)
	opts.SharedCache = cache
	ref, err := Map(nw, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := blifOf(t, ref)
	var snap bytes.Buffer
	if err := cache.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	good := snap.Bytes()

	corruptions := map[string][]byte{
		"truncated-header": good[:4],
		"truncated-mid":    good[:len(good)/2],
		"truncated-tail":   good[:len(good)-1],
	}
	for i, pos := range []int{10, len(good) / 3, len(good) / 2, len(good) - 12} {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x20
		corruptions[map[int]string{0: "flip-a", 1: "flip-b", 2: "flip-c", 3: "flip-d"}[i]] = bad
	}
	for name, bad := range corruptions {
		t.Run(name, func(t *testing.T) {
			c := NewSharedShapeCache(SharedCacheConfig{})
			n, err := c.RestoreSnapshot(bytes.NewReader(bad))
			if err == nil {
				t.Fatalf("corrupted snapshot accepted (%d entries)", n)
			}
			if c.Len() != 0 {
				t.Fatalf("cache not empty after rejected restore: %d", c.Len())
			}
			// Cold cache still maps correctly.
			o := DefaultOptions(4)
			o.SharedCache = c
			res, err := Map(nw, o)
			if err != nil {
				t.Fatalf("cold map after rejected restore: %v", err)
			}
			if got := blifOf(t, res); got != want {
				t.Fatal("cold map after rejected restore emitted different bytes")
			}
		})
	}
}

func TestSnapshotNamespaceMismatchRejected(t *testing.T) {
	// A container written under a different payload namespace (e.g. a
	// future codec) must be rejected wholesale.
	nw := identicalTrees(4)
	cache := NewSharedShapeCache(SharedCacheConfig{})
	opts := DefaultOptions(4)
	opts.SharedCache = cache
	if _, err := Map(nw, opts); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	err := cache.cache.Snapshot(&snap, "chortle-shape-v999", func(v any) ([]byte, error) {
		return encodeSharedShape(v.(*sharedShape)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewSharedShapeCache(SharedCacheConfig{})
	if n, err := c.RestoreSnapshot(&snap); err == nil {
		t.Fatalf("wrong-namespace snapshot accepted (%d entries)", n)
	} else if !bytes.Contains([]byte(err.Error()), []byte("namespace")) {
		t.Fatalf("unexpected rejection: %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("cache not empty after namespace rejection")
	}
}

// leafPatternTrees builds count trees of one shape whose six leaf edges
// draw on a pool of four inputs, so many trees share the shape under
// different leaf-coincidence patterns. The two leaves under one gate
// stay distinct.
func leafPatternTrees(count int, seed int64) *network.Network {
	rng := rand.New(rand.NewSource(seed))
	nw := network.New("patterns")
	var pool []*network.Node
	for j := 0; j < 4; j++ {
		pool = append(pool, nw.AddInput(inName(j)))
	}
	pair := func() (*network.Node, *network.Node) {
		p := rng.Perm(len(pool))
		return pool[p[0]], pool[p[1]]
	}
	for i := 0; i < count; i++ {
		p := "t" + inName(i) + "_"
		a, b := pair()
		c, d := pair()
		l1 := nw.AddGate(p+"l1", network.OpAnd, network.Fanin{Node: a}, network.Fanin{Node: b, Invert: true})
		l2 := nw.AddGate(p+"l2", network.OpOr, network.Fanin{Node: c}, network.Fanin{Node: d})
		l3 := nw.AddGate(p+"l3", network.OpAnd,
			network.Fanin{Node: l1}, network.Fanin{Node: l2}, network.Fanin{Node: pool[rng.Intn(len(pool))]})
		root := nw.AddGate(p+"root", network.OpOr,
			network.Fanin{Node: l3}, network.Fanin{Node: pool[rng.Intn(len(pool))], Invert: true})
		nw.MarkOutput(p+"y", root, false)
	}
	return nw
}

// TestSnapshotBytesDeterministic writes one warm cache 20 times and
// requires the same bytes every time: a snapshot is a pure function of
// the resident shapes and their LRU order.
func TestSnapshotBytesDeterministic(t *testing.T) {
	nw := leafPatternTrees(60, 5)
	cache := NewSharedShapeCache(SharedCacheConfig{})
	for k := 2; k <= 4; k++ {
		opts := DefaultOptions(k)
		opts.SharedCache = cache
		for i := 0; i < 2; i++ {
			if _, err := Map(nw, opts); err != nil {
				t.Fatalf("K=%d map %d: %v", k, i, err)
			}
		}
	}
	var first []byte
	for i := 0; i < 20; i++ {
		var snap bytes.Buffer
		if err := cache.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = snap.Bytes()
		} else if !bytes.Equal(snap.Bytes(), first) {
			t.Fatalf("write %d of one cache differs from the first", i)
		}
	}
}

// TestSnapshotV1Refused restores a snapshot written by the
// chortle-shape-v1 codec, which also carried emission templates and
// preorder indices, in the container that framed entries by hash: the
// version check refuses it whole and the cache stays empty, so a server
// booting from it starts cold.
func TestSnapshotV1Refused(t *testing.T) {
	checkOldSnapshotRefused(t, "testdata/shape_snapshot_v1.bin")
}

// TestSnapshotV2Refused restores a snapshot written by the
// chortle-shape-v2 codec, which also carried a choice table per DP
// node, in the container that framed entries by hash: the version check
// refuses it whole and the cache stays empty, so a server booting from
// it starts cold.
func TestSnapshotV2Refused(t *testing.T) {
	checkOldSnapshotRefused(t, "testdata/shape_snapshot_v2.bin")
}

// TestSnapshotV3Refused restores a snapshot written by the
// chortle-shape-v3 codec, whose entries were framed by a 64-bit tree
// hash and carried their canonical encoding in the payload: the version
// check refuses it whole and the cache stays empty, so a server booting
// from it starts cold.
func TestSnapshotV3Refused(t *testing.T) {
	checkOldSnapshotRefused(t, "testdata/shape_snapshot_v3.bin")
}

func checkOldSnapshotRefused(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := NewSharedShapeCache(SharedCacheConfig{})
	n, err := c.RestoreSnapshot(f)
	if !errors.Is(err, shapecache.ErrSnapshotVersion) {
		t.Fatalf("%s: restored %d shapes with error %v, want a version refusal", path, n, err)
	}
	if c.Len() != 0 {
		t.Fatalf("cache holds %d shapes after the refusal", c.Len())
	}
}

// TestSnapshotIgnoresArenaHistory publishes the shapes of one network
// solved on a fresh arena and on one whose recycled slabs hold an
// earlier run's tables: the two snapshots must be the same bytes, since
// compute writes every table cell a cached shape keeps.
func TestSnapshotIgnoresArenaHistory(t *testing.T) {
	nw := leafPatternTrees(4, 9)
	opts := DefaultOptions(4)
	prefix := shapeKeyPrefix(opts)
	snap := func(a *dpArena) []byte {
		f, err := forest.Decompose(nw)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewSharedShapeCache(SharedCacheConfig{})
		for _, root := range f.Roots {
			key := shapeKey(f, root, prefix)
			if cache.lookup(key) == nil {
				cache.publish(key, &shapeEntry{rep: root, dp: buildDPIn(a, f, root, opts, nil)})
			}
		}
		var b bytes.Buffer
		if err := cache.WriteSnapshot(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	fresh := snap(new(dpArena))

	used := new(dpArena)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		f, err := forest.Decompose(randomWideTree(rng))
		if err != nil {
			t.Fatal(err)
		}
		buildDPIn(used, f, f.Roots[0], DefaultOptions(5), nil)
	}
	used.reset()
	if recycled := snap(used); !bytes.Equal(fresh, recycled) {
		t.Fatalf("snapshot on recycled arena slabs differs: %d vs %d bytes", len(recycled), len(fresh))
	}
}

// TestSnapshotRefusesInconsistentGeometry re-encodes a valid shape with
// one table broken at a time. Each payload must be refused: deriving
// choices from it would read outside a row, or a group granted one pin
// would recurse on itself.
func TestSnapshotRefusesInconsistentGeometry(t *testing.T) {
	opts := DefaultOptions(4)
	f, root := chainTree(t, "geo", 3, true, network.OpAnd)
	frozen, _ := freezeDP(buildDP(f, root, opts))
	key := shapeKey(f, root, shapeKeyPrefix(opts))
	good := encodeSharedShape(&sharedShape{dp: frozen})
	if _, err := decodeSharedShape(key, good); err != nil {
		t.Fatalf("valid payload refused: %v", err)
	}
	cases := []struct {
		name    string
		breakDP func(dp *nodeDP)
	}{
		{"fanin mask", func(dp *nodeDP) { dp.full = 7 }},
		{"row missing", func(dp *nodeDP) { dp.g = dp.g[:len(dp.g)-int(dp.stride)] }},
		{"mm entry missing", func(dp *nodeDP) { dp.mmBest, dp.mmBestU = dp.mmBest[1:], dp.mmBestU[1:] }},
		{"group utilization 1", func(dp *nodeDP) { dp.mmBestU[dp.full] = 1 }},
		{"group utilization K+1", func(dp *nodeDP) { dp.mmBestU[1] = int8(dp.stride) }},
		{"child stride", func(dp *nodeDP) {
			c := dp.fanins[0].child
			c.stride++
			c.g = append(c.g, make([]int32, int(c.full)+1)...)
		}},
	}
	for _, c := range cases {
		ss, err := decodeSharedShape(key, good)
		if err != nil {
			t.Fatal(err)
		}
		c.breakDP(ss.dp)
		if _, err := decodeSharedShape(key, encodeSharedShape(ss)); !errors.Is(err, errBadShapePayload) {
			t.Errorf("%s: decode error %v, want errBadShapePayload", c.name, err)
		}
	}
	// The key must parse, and its K must be the one the DP was solved at.
	for _, c := range []struct{ name, key string }{
		{"key at another K", shapeKey(f, root, shapeKeyPrefix(DefaultOptions(5)))},
		{"decomposition byte", key[:1] + "\x02" + key[2:]},
		{"prefix only", key[:2]},
	} {
		if _, err := decodeSharedShape(c.key, good); !errors.Is(err, errBadShapePayload) {
			t.Errorf("%s: decode error %v, want errBadShapePayload", c.name, err)
		}
	}
}

func TestSharedShapeCodecRoundTrip(t *testing.T) {
	// Exercise the codec directly on cache-resident entries: every
	// encoded shape must decode, under its key, to equal units and DP
	// tables.
	rng := rand.New(rand.NewSource(23))
	cache := NewSharedShapeCache(SharedCacheConfig{})
	for _, nw := range []*network.Network{identicalTrees(6), randomDAG(rng, 7, 30)} {
		opts := DefaultOptions(4)
		opts.SharedCache = cache
		if _, err := Map(nw, opts); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	cache.cache.Range(func(key string, v any, _ int64) bool {
		ss := v.(*sharedShape)
		dec, err := decodeSharedShape(key, encodeSharedShape(ss))
		if err != nil {
			t.Fatalf("decode(encode(shape)): %v", err)
		}
		if dec.units != ss.units {
			t.Fatalf("units %d != %d", dec.units, ss.units)
		}
		if !sameDPShape(dec.dp, ss.dp) {
			t.Fatal("DP skeleton changed across the codec")
		}
		count++
		return true
	})
	if count == 0 {
		t.Fatal("no shapes to round-trip")
	}
}

// sameDPShape structurally compares two frozen DP trees.
func sameDPShape(a, b *nodeDP) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.full != b.full || a.stride != b.stride ||
		a.bestCost != b.bestCost || a.bestU != b.bestU ||
		len(a.g) != len(b.g) ||
		len(a.mmBest) != len(b.mmBest) || len(a.mmBestU) != len(b.mmBestU) ||
		len(a.fanins) != len(b.fanins) {
		return false
	}
	for i := range a.g {
		if a.g[i] != b.g[i] {
			return false
		}
	}
	for i := range a.mmBest {
		if a.mmBest[i] != b.mmBest[i] || a.mmBestU[i] != b.mmBestU[i] {
			return false
		}
	}
	for i := range a.fanins {
		if !sameDPShape(a.fanins[i].child, b.fanins[i].child) {
			return false
		}
	}
	return true
}

// TestOversizeKeySkippedBySnapshot publishes a shape whose key is
// longer than a snapshot restore accepts: the live cache keeps it, so a
// repeated huge tree is not solved again, but a snapshot written
// afterwards leaves it out and still restores every other shape instead
// of being refused whole.
func TestOversizeKeySkippedBySnapshot(t *testing.T) {
	opts := DefaultOptions(4)
	cache := NewSharedShapeCache(SharedCacheConfig{})
	o := opts
	o.SharedCache = cache
	if _, err := Map(identicalTrees(4), o); err != nil {
		t.Fatal(err)
	}
	shapes := cache.Len()
	if shapes == 0 {
		t.Fatal("the warm-up published no shapes")
	}
	f, root := chainTree(t, "big", 3, false, network.OpAnd)
	big := shapeKey(f, root, shapeKeyPrefix(opts)) + string(make([]byte, shapecache.MaxKeyLen))
	cache.publish(big, &shapeEntry{rep: root, dp: buildDP(f, root, opts)})
	if cache.lookup(big) == nil || cache.Len() != shapes+1 {
		t.Fatalf("the oversize key was not published: %d shapes, want %d", cache.Len(), shapes+1)
	}
	var snap bytes.Buffer
	if err := cache.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := NewSharedShapeCache(SharedCacheConfig{})
	if n, err := restored.RestoreSnapshot(&snap); err != nil || n != shapes {
		t.Fatalf("restored %d shapes with error %v, want %d", n, err, shapes)
	}
}

// snapEntry is one entry of a snapshot container, as listed in the file.
type snapEntry struct {
	key     string
	cost    uint64
	payload []byte
}

// parseSnapshotBody reads a container body (the file without its
// checksum) independently of shapecache, returning the entries it
// lists; ok is false if the body is not well formed.
func parseSnapshotBody(body []byte) (entries []snapEntry, ok bool) {
	const magic = "chortsnp"
	if len(body) < len(magic) || string(body[:len(magic)]) != magic {
		return nil, false
	}
	b := body[len(magic):]
	uv := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			ok = false
			return 0
		}
		b = b[n:]
		return v
	}
	field := func() []byte {
		n := uv()
		if !ok || n > uint64(len(b)) {
			ok = false
			return nil
		}
		p := b[:n]
		b = b[n:]
		return p
	}
	ok = true
	uv()    // version
	field() // namespace
	count := uv()
	for i := uint64(0); ok && i < count; i++ {
		key := field()
		cost := uv()
		payload := field()
		entries = append(entries, snapEntry{key: string(key), cost: cost, payload: payload})
	}
	return entries, ok && len(b) == 0
}

// FuzzRestoreSnapshot restores fuzzed container bodies, each signed with
// its correct CRC-64 so that mutations reach the key frames and the
// payload decoder instead of stopping at the checksum. Restore must
// never panic; a refusal must leave the cache empty; a success must
// hold exactly the entries the file lists, each decoded from its own
// payload under its own key, less any that the cache's bounds evicted.
func FuzzRestoreSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	cache := NewSharedShapeCache(SharedCacheConfig{})
	for _, nw := range []*network.Network{identicalTrees(3), randomDAG(rng, 5, 12)} {
		opts := DefaultOptions(3)
		opts.SharedCache = cache
		if _, err := Map(nw, opts); err != nil {
			f.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := cache.WriteSnapshot(&snap); err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{snap.Bytes()}
	for _, v := range []string{"v1", "v2", "v3"} {
		data, err := os.ReadFile("testdata/shape_snapshot_" + v + ".bin")
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	for _, s := range seeds {
		f.Add(s[:len(s)-8])
	}
	table := crc64.MakeTable(crc64.ECMA)
	f.Fuzz(func(t *testing.T, body []byte) {
		file := binary.BigEndian.AppendUint64(append([]byte(nil), body...), crc64.Checksum(body, table))
		c := NewSharedShapeCache(SharedCacheConfig{})
		n, err := c.RestoreSnapshot(bytes.NewReader(file))
		if err != nil {
			if c.Len() != 0 {
				t.Fatalf("refused with %v but holds %d shapes", err, c.Len())
			}
			return
		}
		listed, ok := parseSnapshotBody(body)
		if !ok {
			t.Fatal("restore accepted a body that does not parse")
		}
		if n != len(listed) {
			t.Fatalf("restore reported %d shapes, the file lists %d", n, len(listed))
		}
		byKey := make(map[string]snapEntry, len(listed))
		for _, e := range listed {
			byKey[e.key] = e
		}
		resident := 0
		c.cache.Range(func(key string, v any, _ int64) bool {
			e, ok := byKey[key]
			if !ok {
				t.Fatalf("restored a key the file does not list")
			}
			want, err := decodeSharedShape(key, e.payload)
			if err != nil {
				t.Fatalf("restored an entry whose payload does not decode: %v", err)
			}
			got := v.(*sharedShape)
			if got.units != want.units || !sameDPShape(got.dp, want.dp) {
				t.Fatal("a restored shape differs from its listed payload")
			}
			resident++
			return true
		})
		if st := c.Stats(); int64(resident)+st.Evictions != int64(len(listed)) {
			t.Fatalf("%d resident and %d evicted of %d listed", resident, st.Evictions, len(listed))
		}
	})
}
