package index

import (
	"fmt"
	"io"

	"waveindex/internal/simdisk"
	"waveindex/internal/wire"
)

const snapshotMagic = "WIDX1"

// maxSnapshotBucketCap bounds the per-bucket capacity a snapshot may
// declare (16M entries ≈ 256 MB): far above any real bucket, far below
// what a corrupt length field could otherwise demand.
const maxSnapshotBucketCap = 1 << 24

// WriteSnapshot serialises the index's logical content and physical shape
// (time-set, options, per-bucket entries, packedness and growth headroom)
// so ReadSnapshot can rebuild an equivalent index on any block store.
func (idx *Index) WriteSnapshot(w io.Writer) error {
	if idx.dropped {
		return ErrDropped
	}
	ww := wire.NewWriter(w)
	ww.Magic(snapshotMagic)
	ww.Int(int(idx.opts.Dir))
	ww.I64(int64(idx.opts.Growth * 1000)) // growth in thousandths
	ww.Int(idx.opts.MinBucketCap)
	ww.Bool(idx.packed)
	ww.Ints(idx.Days())
	ww.Int(idx.dir.len())
	var err error
	idx.dir.ascend(func(key string, b *bucketRef) bool {
		ww.String(key)
		ww.Int(b.cap)
		var es []Entry
		es, err = idx.readBucket(b)
		if err != nil {
			return false
		}
		buf := encodeEntries(es)
		ww.Bytes(buf)
		putBuf(buf)
		return true
	})
	if err != nil {
		return fmt.Errorf("index: snapshot: %w", err)
	}
	return ww.Flush()
}

// ReadSnapshot rebuilds an index from a snapshot onto the given store.
// The restored index preserves the snapshot's packedness: a packed
// snapshot is rebuilt as one contiguous segment, an unpacked one gets
// per-bucket extents with the original growth headroom.
func ReadSnapshot(store simdisk.BlockStore, r io.Reader) (*Index, error) {
	rr := wire.NewReader(r)
	rr.Expect(snapshotMagic)
	dir := DirKind(rr.Int())
	growth := float64(rr.I64()) / 1000
	minCap := rr.Int()
	packed := rr.Bool()
	days := rr.Ints()
	numKeys := rr.Int()
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("index: restore: %w", err)
	}
	// All counts and capacities come from untrusted bytes: a corrupt
	// snapshot must fail with an error, not a makeslice panic or an
	// unbounded allocation driven by a flipped bit in a length field.
	if numKeys < 0 {
		return nil, fmt.Errorf("index: restore: negative key count %d", numKeys)
	}
	if minCap < 0 || minCap > maxSnapshotBucketCap {
		return nil, fmt.Errorf("index: restore: implausible min bucket cap %d", minCap)
	}
	type bucket struct {
		key     string
		cap     int
		entries []Entry
	}
	buckets := make([]bucket, 0, min(numKeys, 1<<16))
	total := 0
	for i := 0; i < numKeys; i++ {
		key := rr.String()
		capEntries := rr.Int()
		raw := rr.Bytes()
		if err := rr.Err(); err != nil {
			return nil, fmt.Errorf("index: restore: %w", err)
		}
		if len(raw)%EntrySize != 0 {
			return nil, fmt.Errorf("index: restore: bucket %q has %d raw bytes", key, len(raw))
		}
		es := decodeInRange(raw, len(raw)/EntrySize, allDaysLo, allDaysHi)
		if capEntries < len(es) {
			return nil, fmt.Errorf("index: restore: bucket %q cap %d < %d entries", key, capEntries, len(es))
		}
		if capEntries > maxSnapshotBucketCap {
			return nil, fmt.Errorf("index: restore: bucket %q cap %d exceeds limit", key, capEntries)
		}
		buckets = append(buckets, bucket{key, capEntries, es})
		total += len(es)
	}
	opts := Options{Dir: dir, Growth: growth, MinBucketCap: minCap}
	idx := NewEmpty(store, opts)
	for _, d := range days {
		idx.days[d] = struct{}{}
	}
	idx.recomputeDayBounds()
	idx.packed = packed
	bs := int64(store.BlockSize())
	if packed {
		if total > 0 {
			seg, err := store.Alloc((int64(total)*EntrySize + bs - 1) / bs)
			if err != nil {
				return nil, fmt.Errorf("index: restore: %w", err)
			}
			idx.seg = seg
			idx.allocBytes += seg.Bytes(store.BlockSize())
			buf := make([]byte, total*EntrySize)
			var off int64
			for _, b := range buckets {
				encodeEntriesInto(buf[off:], b.entries)
				idx.dir.set(b.key, &bucketRef{off: off, used: len(b.entries), cap: len(b.entries)})
				off += int64(len(b.entries) * EntrySize)
			}
			if err := store.WriteAt(seg, 0, buf); err != nil {
				return nil, fmt.Errorf("index: restore: %w", err)
			}
		}
	} else {
		for _, b := range buckets {
			ext, realCap, err := idx.allocBucket(b.cap)
			if err != nil {
				return nil, fmt.Errorf("index: restore: %w", err)
			}
			ebuf := encodeEntries(b.entries)
			werr := store.WriteAt(ext, 0, ebuf)
			putBuf(ebuf)
			if werr != nil {
				return nil, fmt.Errorf("index: restore: %w", werr)
			}
			idx.dir.set(b.key, &bucketRef{ext: ext, used: len(b.entries), cap: realCap, owned: true})
		}
	}
	idx.entries = total
	return idx, nil
}
