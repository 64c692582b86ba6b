package recoverylog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
)

// Options tunes a disk-backed log opened with Open.
type Options struct {
	// SegmentEntries is how many entries one segment file holds before the
	// log rotates to a new one; compaction drops whole segments, so smaller
	// segments bound the footprint tighter at the cost of more files.
	// Zero means 1024.
	SegmentEntries int
	// FsyncEvery batches durability: fsync after this many appends (and on
	// Sync/rotate/Close). 1 syncs every append; zero means 64. Entries
	// between the crash and the last fsync can be lost — the same window a
	// group-committed database WAL has.
	FsyncEvery int
}

func (o Options) withDefaults() Options {
	if o.SegmentEntries <= 0 {
		o.SegmentEntries = 1024
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 64
	}
	return o
}

const (
	segPrefix = "seg-"
	segSuffix = ".wal"
	ckptFile  = "checkpoints.dat"
	recHeader = 8        // uint32 length + uint32 crc32 of the payload
	maxRecord = 64 << 20 // sanity bound; a longer length prefix is corruption
)

// segMeta describes one on-disk segment file.
type segMeta struct {
	first uint64 // seq of the segment's first entry
	count int    // entries currently in the segment
	path  string
}

func (s segMeta) last() uint64 { return s.first + uint64(s.count) - 1 }

// diskStore is the segmented file backend. All methods are called with the
// owning Log's mutex held.
type diskStore struct {
	dir     string
	opts    Options
	segs    []segMeta
	active  *os.File // last segment, open for append; nil until first write
	pending int      // appends since the last fsync
	syncs   uint64   // fsyncs actually issued (group-commit accounting)
}

func segPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", segPrefix, first, segSuffix))
}

// loaded is what openStore found in a log directory.
type loaded struct {
	entries []engine.Event // retained entries, in order
	ends    []int64        // ends[i]: size of the records of entries[:i+1]
	base    uint64         // the compaction base
	ckpts   map[string]*checkpointRec
}

// openStore loads (or initializes) a log directory. A torn record at the
// tail of the last segment is truncated away; corruption anywhere else is an
// error.
func openStore(dir string, opts Options) (*diskStore, loaded, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, loaded{}, fmt.Errorf("recoverylog: open %s: %w", dir, err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, loaded{}, fmt.Errorf("recoverylog: open %s: %w", dir, err)
	}
	var segFiles []string
	for _, de := range names {
		n := de.Name()
		if strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix) {
			segFiles = append(segFiles, n)
		}
	}
	sort.Strings(segFiles)

	st := &diskStore{dir: dir, opts: opts}
	var entries []engine.Event
	var ends []int64 // running total of the record sizes
	var total int64
	var base uint64
	baseSet := false
	for i, name := range segFiles {
		path := filepath.Join(dir, name)
		first, perr := parseSegName(name)
		if perr != nil {
			return nil, loaded{}, perr
		}
		segEntries, segSizes, goodBytes, rerr := readSegment(path)
		last := i == len(segFiles)-1
		if rerr != nil {
			if !last {
				return nil, loaded{}, fmt.Errorf("recoverylog: segment %s: %w", name, rerr)
			}
			// Torn tail of the final segment: keep the good prefix, drop the
			// rest. The entries beyond it were never acknowledged as synced.
			if terr := os.Truncate(path, goodBytes); terr != nil {
				return nil, loaded{}, fmt.Errorf("recoverylog: heal %s: %w", name, terr)
			}
		}
		if len(segEntries) > 0 && segEntries[0].Seq != first {
			return nil, loaded{}, fmt.Errorf("recoverylog: segment %s starts at seq %d, want %d",
				name, segEntries[0].Seq, first)
		}
		if !baseSet {
			base = first - 1
			baseSet = true
		}
		want := base + uint64(len(entries)) + 1
		for _, e := range segEntries {
			if e.Seq != want {
				return nil, loaded{}, fmt.Errorf("recoverylog: segment %s: seq %d breaks contiguity (want %d)",
					name, e.Seq, want)
			}
			want++
		}
		entries = append(entries, segEntries...)
		for _, n := range segSizes {
			total += int64(n)
			ends = append(ends, total)
		}
		st.segs = append(st.segs, segMeta{first: first, count: len(segEntries), path: path})
	}
	// Drop empty trailing segments left by a crash between create and write.
	for len(st.segs) > 0 && st.segs[len(st.segs)-1].count == 0 {
		s := st.segs[len(st.segs)-1]
		if err := os.Remove(s.path); err != nil {
			return nil, loaded{}, fmt.Errorf("recoverylog: remove empty %s: %w", s.path, err)
		}
		st.segs = st.segs[:len(st.segs)-1]
	}
	ckpts, err := loadCheckpoints(filepath.Join(dir, ckptFile))
	if err != nil {
		return nil, loaded{}, err
	}
	head := base + uint64(len(entries))
	// A payload checkpoint ahead of every surviving entry means the entry
	// suffix was lost (crash inside the fsync window, or a failover reset
	// that crashed before its first append). The checkpoint is a complete
	// fsynced snapshot, so re-base the log on it instead of discarding it:
	// recovery clones the checkpoint with an empty tail.
	var rebase *checkpointRec
	for _, c := range ckpts {
		if c.Seq > head && c.Payload != nil && (rebase == nil || c.Seq > rebase.Seq) {
			rebase = c
		}
	}
	if rebase != nil {
		if err := st.reset(); err != nil {
			return nil, loaded{}, err
		}
		entries, ends = nil, nil
		base = rebase.Seq
		head = base
	}
	// Position-only checkpoints past the head are unusable for tail replay;
	// drop them rather than resync from a future that no longer exists.
	for name, c := range ckpts {
		if c.Seq > head {
			delete(ckpts, name)
		}
	}
	return st, loaded{entries: entries, ends: ends, base: base, ckpts: ckpts}, nil
}

func parseSegName(name string) (uint64, error) {
	num := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	first, err := strconv.ParseUint(num, 10, 64)
	if err != nil || first == 0 {
		return 0, fmt.Errorf("recoverylog: bad segment name %q", name)
	}
	return first, nil
}

// readSegment decodes a segment file. It returns the entries decoded, the
// size of each one's record, the byte offset of the end of the last good
// record, and an error when the file ends in (or contains) a record that
// does not check out.
func readSegment(path string) ([]engine.Event, []int, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	var entries []engine.Event
	var sizes []int
	var off int64
	for int(off) < len(data) {
		rest := data[off:]
		if len(rest) < recHeader {
			return entries, sizes, off, fmt.Errorf("torn record header at offset %d", off)
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length == 0 || length > maxRecord || int(length) > len(rest)-recHeader {
			return entries, sizes, off, fmt.Errorf("torn or oversized record (%d bytes) at offset %d", length, off)
		}
		payload := rest[recHeader : recHeader+int(length)]
		if crc32.ChecksumIEEE(payload) != sum {
			return entries, sizes, off, fmt.Errorf("checksum mismatch at offset %d", off)
		}
		var e engine.Event
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&e); err != nil {
			return entries, sizes, off, fmt.Errorf("undecodable record at offset %d: %v", off, err)
		}
		entries = append(entries, e)
		sizes = append(sizes, recHeader+int(length))
		off += recHeader + int64(length)
	}
	return entries, sizes, off, nil
}

func encodeRecord(e engine.Event) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(e); err != nil {
		return nil, err
	}
	rec := make([]byte, recHeader+payload.Len())
	binary.LittleEndian.PutUint32(rec[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	copy(rec[recHeader:], payload.Bytes())
	return rec, nil
}

// recordSize is the size encodeRecord's record of e has, without building
// it. A memory-only log measures itself with it in the disk store's unit.
func recordSize(e engine.Event) (int, error) {
	var n byteCounter
	if err := gob.NewEncoder(&n).Encode(e); err != nil {
		return 0, err
	}
	return recHeader + int(n), nil
}

// byteCounter is an io.Writer that keeps only the number of bytes written.
type byteCounter int

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// appendEntry writes one entry, rotating segments as configured and
// fsyncing every opts.FsyncEvery appends. It returns the record's size.
func (st *diskStore) appendEntry(e engine.Event) (int, error) {
	if st.active == nil || st.segs[len(st.segs)-1].count >= st.opts.SegmentEntries {
		if err := st.rotate(e.Seq); err != nil {
			return 0, err
		}
	}
	rec, err := encodeRecord(e)
	if err != nil {
		return 0, fmt.Errorf("recoverylog: encode entry %d: %w", e.Seq, err)
	}
	if _, err := st.active.Write(rec); err != nil {
		return 0, fmt.Errorf("recoverylog: append entry %d: %w", e.Seq, err)
	}
	st.segs[len(st.segs)-1].count++
	st.pending++
	if st.pending >= st.opts.FsyncEvery {
		return len(rec), st.sync()
	}
	return len(rec), nil
}

// rotate syncs and closes the active segment and opens a new one whose
// first entry will be seq.
func (st *diskStore) rotate(seq uint64) error {
	if st.active != nil {
		if err := st.sync(); err != nil {
			return err
		}
		if err := st.active.Close(); err != nil {
			return err
		}
		st.active = nil
	}
	// Reuse the last loaded segment when it still has room (first append
	// after reload).
	if len(st.segs) > 0 {
		s := st.segs[len(st.segs)-1]
		if s.count < st.opts.SegmentEntries && s.last()+1 == seq {
			f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			st.active = f
			return nil
		}
	}
	path := segPath(st.dir, seq)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st.active = f
	st.segs = append(st.segs, segMeta{first: seq, count: 0, path: path})
	return nil
}

func (st *diskStore) sync() error {
	if st.active == nil || st.pending == 0 {
		st.pending = 0
		return nil
	}
	if err := st.active.Sync(); err != nil {
		return err
	}
	st.syncs++
	st.pending = 0
	return nil
}

func (st *diskStore) close() error {
	if st.active == nil {
		return nil
	}
	err := st.sync()
	if cerr := st.active.Close(); err == nil {
		err = cerr
	}
	st.active = nil
	return err
}

// reset deletes every segment file (the log restarts at a new base; the
// first append after it names the new first segment).
func (st *diskStore) reset() error {
	if st.active != nil {
		_ = st.active.Close()
		st.active = nil
	}
	for _, s := range st.segs {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("recoverylog: reset: %w", err)
		}
	}
	st.segs = nil
	st.pending = 0
	return nil
}

// compactBelow deletes whole segments whose entries all sit at or below
// floor, returning the new compaction base (the last seq actually dropped).
// The active (final) segment is never deleted.
func (st *diskStore) compactBelow(floor uint64) (uint64, error) {
	var newBase uint64
	drop := 0
	for i, s := range st.segs {
		if i == len(st.segs)-1 {
			break // keep the active segment
		}
		if s.count > 0 && s.last() <= floor {
			drop = i + 1
			newBase = s.last()
		} else {
			break
		}
	}
	for _, s := range st.segs[:drop] {
		if err := os.Remove(s.path); err != nil {
			return 0, fmt.Errorf("recoverylog: compact: %w", err)
		}
	}
	st.segs = append([]segMeta(nil), st.segs[drop:]...)
	return newBase, nil
}

// truncateTail rewrites storage so the log ends at `to`. retained is the
// full in-memory entry set after truncation (authoritative); segments above
// `to` are deleted and the one containing `to` is rewritten.
func (st *diskStore) truncateTail(to uint64, retained []engine.Event) error {
	if st.active != nil {
		_ = st.sync()
		_ = st.active.Close()
		st.active = nil
	}
	keep := 0
	for _, s := range st.segs {
		if s.first > to {
			break
		}
		keep++
	}
	for _, s := range st.segs[keep:] {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("recoverylog: truncate: %w", err)
		}
	}
	st.segs = append([]segMeta(nil), st.segs[:keep]...)
	if keep == 0 {
		return nil
	}
	// Rewrite the final kept segment with only its retained entries.
	s := &st.segs[keep-1]
	if s.last() <= to {
		s.count = int(to - s.first + 1) // unchanged; nothing to rewrite
		return nil
	}
	var buf bytes.Buffer
	n := 0
	for _, e := range retained {
		if e.Seq >= s.first && e.Seq <= to {
			rec, err := encodeRecord(e)
			if err != nil {
				return err
			}
			buf.Write(rec)
			n++
		}
	}
	if err := atomicWrite(s.path, buf.Bytes()); err != nil {
		return fmt.Errorf("recoverylog: truncate rewrite: %w", err)
	}
	s.count = n
	st.pending = 0
	return nil
}

// saveCheckpoints rewrites the checkpoint file atomically (small file, few
// records; payloads are engine backups).
func (st *diskStore) saveCheckpoints(ckpts map[string]*checkpointRec) error {
	names := make([]string, 0, len(ckpts))
	for n := range ckpts {
		names = append(names, n)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, n := range names {
		if err := enc.Encode(ckpts[n]); err != nil {
			return fmt.Errorf("recoverylog: encode checkpoint %s: %w", n, err)
		}
	}
	return atomicWrite(filepath.Join(st.dir, ckptFile), buf.Bytes())
}

func loadCheckpoints(path string) (map[string]*checkpointRec, error) {
	out := make(map[string]*checkpointRec)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return out, nil
	}
	if err != nil {
		return nil, fmt.Errorf("recoverylog: checkpoints: %w", err)
	}
	dec := gob.NewDecoder(bytes.NewReader(data))
	for {
		var c checkpointRec
		if err := dec.Decode(&c); err != nil {
			if err == io.EOF {
				break
			}
			// The file is written atomically, so a bad record means real
			// corruption, not a torn write.
			return nil, fmt.Errorf("recoverylog: corrupt checkpoint file: %v", err)
		}
		cc := c
		out[c.Name] = &cc
	}
	return out, nil
}

// atomicWrite writes data to path via a temp file + rename + dir best-effort
// sync, so readers never observe a half-written file.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
