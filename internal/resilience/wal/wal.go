// Package wal is the crash-safe write-ahead log behind the gateway's
// durable segment spool. Every admitted segment is journaled before it is
// spooled; acknowledgements are journaled as the shipped window advances;
// a restarted gateway replays whatever was journaled but never acked.
//
// On-disk format (DESIGN.md §15): a WAL directory holds rotated files
// wal-<seq>.log, each a sequence of framed records
//
//	[kind:1][len:4 BE][payload:len][crc32c:4 BE]
//
// with the CRC32-Castagnoli covering kind, length and payload. Record
// kinds: a data record's payload is [id:8 BE] followed by the backhaul
// segment codec encoding (byte-identical to a MsgSegmentSeq payload, so
// the segment codec's own integrity trailer travels into the log); an ack
// record's payload is the 8-byte id it retires. Ids are assigned
// monotonically per log lifetime and never reused, so replay order is
// admission order even across rotated files.
//
// Recovery tolerates torn tails and corrupt records by truncating the
// containing file at the first bad frame — never by failing open and never
// by replaying a record whose checksum does not hold. Acks that reference
// unknown ids (their data file was already compacted away) are ignored.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/backhaul"
	"repro/internal/faults"
	"repro/internal/obs"
)

// Record kinds.
const (
	recData = 1
	recAck  = 2
)

// recHeader is kind + big-endian length; recTrailer the CRC32C.
const (
	recHeader  = 5
	recTrailer = 4
)

// DefaultFileBytes caps one WAL file before rotation when
// Options.FileBytes is zero.
const DefaultFileBytes = 1 << 20

// DefaultSyncEvery is the batched-policy fsync cadence (appends per sync)
// when Options.SyncEvery is zero.
const DefaultSyncEvery = 8

// castagnoli is the CRC32C table shared by framing and recovery.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append after Close or Abandon.
var ErrClosed = errors.New("wal: log closed")

// ErrWedged is returned by Append once a disk fault could not be repaired
// by truncating back to the last good record boundary; the log stops
// accepting records so it cannot grow an unparseable tail.
var ErrWedged = errors.New("wal: log wedged by unrepairable disk fault")

// SyncPolicy selects when Append fsyncs.
type SyncPolicy int

const (
	// SyncBatched (the default) fsyncs every SyncEvery appends, on
	// rotation and on Close — bounded loss window, amortized cost.
	SyncBatched SyncPolicy = iota
	// SyncEachRecord fsyncs after every append — no loss window, one disk
	// round-trip per segment.
	SyncEachRecord
	// SyncNone never fsyncs during appends (Close still does) — fastest,
	// widest loss window; a crash may tear everything since open.
	SyncNone
)

// Metrics is the wal_* counter set. All fields are nil-safe, so a zero
// Metrics disables accounting without branches.
type Metrics struct {
	Appended     *obs.Counter // wal_records_appended_total
	Acked        *obs.Counter // wal_records_acked_total
	Synced       *obs.Counter // wal_syncs_total
	Replayed     *obs.Counter // wal_records_replayed_total
	TruncatedRec *obs.Counter // wal_truncated_records_total
	TruncatedB   *obs.Counter // wal_truncated_bytes_total
	Compacted    *obs.Counter // wal_files_compacted_total
	AppendErrors *obs.Counter // wal_append_errors_total
	LiveBytes    *obs.Gauge   // wal_live_bytes
}

// NewMetrics wires the wal_* series onto a registry.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Appended:     r.Counter("wal_records_appended_total"),
		Acked:        r.Counter("wal_records_acked_total"),
		Synced:       r.Counter("wal_syncs_total"),
		Replayed:     r.Counter("wal_records_replayed_total"),
		TruncatedRec: r.Counter("wal_truncated_records_total"),
		TruncatedB:   r.Counter("wal_truncated_bytes_total"),
		Compacted:    r.Counter("wal_files_compacted_total"),
		AppendErrors: r.Counter("wal_append_errors_total"),
		LiveBytes:    r.Gauge("wal_live_bytes"),
	}
}

// Options configures Open.
type Options struct {
	// Dir is the WAL directory, created if missing. Required.
	Dir string
	// FileBytes caps one file before rotation (default DefaultFileBytes).
	FileBytes int64
	// Sync is the fsync policy (default SyncBatched).
	Sync SyncPolicy
	// SyncEvery is the batched cadence (default DefaultSyncEvery).
	SyncEvery int
	// FS is the filesystem seam (default the real OS). Tests inject
	// faults.NewFS here.
	FS faults.Filesystem
	// Metrics receives the wal_* series (nil = unaccounted).
	Metrics *Metrics
	// Journal records wal_window_recover / wal_tail_truncate /
	// wal_file_compact transitions (nil-safe).
	Journal *obs.Journal
}

// Entry is one recovered, unacknowledged data record.
type Entry struct {
	// ID is the record's log-assigned id; pass it to Ack once the segment
	// has been shipped and acknowledged (or otherwise finally handled).
	ID uint64
	// Seg is the decoded segment, ready to re-ship.
	Seg backhaul.Segment
}

// walFile tracks one on-disk file's live (unacked) data records.
type walFile struct {
	seq     uint64
	path    string
	size    int64
	unacked map[uint64]struct{}
}

// Log is the write-ahead log. Append and Ack are safe for concurrent use
// (the gateway's feeder appends while the session goroutine acks).
type Log struct {
	opts Options

	mu       sync.Mutex
	files    []*walFile // oldest..newest; the last is the append target
	active   faults.File
	nextID   uint64
	nextSeq  uint64
	loc      map[uint64]*walFile // live data record id -> containing file
	since    int                 // appends since the last sync (batched)
	live     int64               // bytes across all files
	wedgeErr error
	closed   bool
}

// fileName formats the rotated-file name for a sequence number.
func fileName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

// parseFileName extracts the sequence number from a wal file name.
func parseFileName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	digits := name[len("wal-") : len(name)-len(".log")]
	if digits == "" {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// appendRecord frames one record onto buf.
func appendRecord(buf []byte, kind byte, payload []byte) []byte {
	off := len(buf)
	buf = append(buf, kind, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf[off+1:], uint32(len(payload)))
	buf = append(buf, payload...)
	sum := crc32.Checksum(buf[off:], castagnoli)
	var tr [recTrailer]byte
	binary.BigEndian.PutUint32(tr[:], sum)
	return append(buf, tr[:]...)
}

// parseRecord reads the record at data[off:]. ok=false means the bytes
// from off on do not hold one whole, checksum-clean record — the torn-tail
// truncation point.
func parseRecord(data []byte, off int) (kind byte, payload []byte, next int, ok bool) {
	if off+recHeader+recTrailer > len(data) {
		return 0, nil, 0, false
	}
	kind = data[off]
	if kind != recData && kind != recAck {
		return 0, nil, 0, false
	}
	n := int(binary.BigEndian.Uint32(data[off+1:]))
	if n > backhaul.MaxMessageSize || off+recHeader+n+recTrailer > len(data) {
		return 0, nil, 0, false
	}
	body := data[off : off+recHeader+n]
	want := binary.BigEndian.Uint32(data[off+recHeader+n:])
	if crc32.Checksum(body, castagnoli) != want {
		return 0, nil, 0, false
	}
	return kind, body[recHeader:], off + recHeader + n + recTrailer, true
}

// scannedRecord is one checksum-clean record as Inspect reports it, plus a
// data record's decoded segment for recovery to replay.
type scannedRecord struct {
	RecordInfo
	seg backhaul.Segment
}

// scannedFile is one WAL file parsed up to its first bad frame.
type scannedFile struct {
	seq  uint64
	name string
	// size is the file's length on disk; good is the length of its clean
	// prefix. Recovery truncates the file to good.
	size, good int64
	recs       []scannedRecord
}

// scanDir is the one reader of the on-disk format, shared by recovery and
// Inspect. It lists dir's wal files in sequence order and parses each up to
// its first bad frame: a torn or checksum-failing frame, a data record
// whose segment does not decode, or an ack that is not 8 bytes. It mutates
// nothing. On error, name is the file that could not be read ("" when the
// directory listing failed).
func scanDir(fs faults.Filesystem, dir string) (files []scannedFile, name string, err error) {
	names, err := fs.List(dir)
	if err != nil {
		return nil, "", err
	}
	seqs := make([]uint64, 0, len(names))
	for _, n := range names {
		if seq, ok := parseFileName(n); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		f := scannedFile{seq: seq, name: fileName(seq)}
		raw, err := fs.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			return nil, f.name, err
		}
		f.size = int64(len(raw))
		off := 0
		for off < len(raw) {
			kind, payload, next, ok := parseRecord(raw, off)
			if !ok {
				break
			}
			r := scannedRecord{RecordInfo: RecordInfo{Kind: "ack"}}
			if kind == recData {
				id, seg, err := backhaul.DecodeSegmentSeq(payload)
				if err != nil {
					break // the frame CRC held but the segment does not decode
				}
				r = scannedRecord{RecordInfo{Kind: "data", ID: id, SegStart: seg.Start, SegSamples: len(seg.Samples), TraceID: seg.Trace}, seg}
			} else if len(payload) == 8 {
				r.ID = binary.BigEndian.Uint64(payload)
			} else {
				break // an ack record is exactly the 8-byte id it retires
			}
			f.recs = append(f.recs, r)
			off = next
		}
		f.good = int64(off)
		files = append(files, f)
	}
	return files, "", nil
}

// Open opens (creating if needed) the WAL in opts.Dir, runs recovery, and
// returns the log plus every unacknowledged entry oldest-first. Recovery
// truncates each file at its first bad frame (counting the cut on
// wal_truncated_records_total / wal_truncated_bytes_total), drops
// fully-acked files, and never fails on corrupt contents — only on
// filesystem errors that make the directory unusable.
func Open(opts Options) (*Log, []Entry, error) {
	if opts.Dir == "" {
		return nil, nil, errors.New("wal: Options.Dir is required")
	}
	if opts.FS == nil {
		opts.FS = faults.OS()
	}
	if opts.FileBytes <= 0 {
		opts.FileBytes = DefaultFileBytes
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if opts.Metrics == nil {
		opts.Metrics = &Metrics{}
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	scanned, name, err := scanDir(opts.FS, opts.Dir)
	if err != nil {
		if name == "" {
			return nil, nil, fmt.Errorf("wal: list dir: %w", err)
		}
		return nil, nil, fmt.Errorf("wal: recover %s: %w", filepath.Join(opts.Dir, name), err)
	}

	// Retire acked records as they are replayed, then drop files with
	// nothing live. The newest file is kept as the append target only if
	// it is still under the rotation cap; recovery of a full directory
	// otherwise starts fresh.
	acks := make(map[uint64]struct{})
	for _, sf := range scanned {
		for _, r := range sf.recs {
			if r.Kind == "ack" {
				acks[r.ID] = struct{}{}
			}
		}
	}
	l := &Log{opts: opts, nextID: 1, nextSeq: 1, loc: make(map[uint64]*walFile)}
	var entries []Entry
	for _, sf := range scanned {
		f := &walFile{seq: sf.seq, path: filepath.Join(opts.Dir, sf.name), size: sf.good, unacked: make(map[uint64]struct{})}
		if cut := sf.size - sf.good; cut > 0 {
			// First bad frame: cut the file there. Everything after is
			// indistinguishable from garbage, so it is one truncation
			// event covering the whole tail.
			if err := opts.FS.Truncate(f.path, sf.good); err != nil {
				return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", f.path, err)
			}
			opts.Metrics.TruncatedRec.Inc()
			opts.Metrics.TruncatedB.Add(uint64(cut))
			opts.Journal.Record("wal_tail_truncate", cut)
		}
		for _, r := range sf.recs {
			if r.Kind != "data" {
				continue
			}
			if r.ID >= l.nextID {
				l.nextID = r.ID + 1
			}
			if _, ok := acks[r.ID]; ok {
				continue
			}
			entries = append(entries, Entry{ID: r.ID, Seg: r.seg})
			f.unacked[r.ID] = struct{}{}
			l.loc[r.ID] = f
		}
		if sf.seq >= l.nextSeq {
			l.nextSeq = sf.seq + 1
		}
		l.files = append(l.files, f)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	kept := l.files[:0]
	for i, f := range l.files {
		lastUsable := i == len(l.files)-1 && f.size < opts.FileBytes
		if len(f.unacked) == 0 && !lastUsable {
			if err := opts.FS.Remove(f.path); err != nil {
				return nil, nil, fmt.Errorf("wal: compact %s: %w", f.path, err)
			}
			opts.Metrics.Compacted.Inc()
			opts.Journal.Record("wal_file_compact", int64(f.seq))
			continue
		}
		kept = append(kept, f)
		l.live += f.size
	}
	l.files = kept

	if err := l.openTail(); err != nil {
		return nil, nil, err
	}
	opts.Metrics.LiveBytes.Set(l.live)
	opts.Metrics.Replayed.Add(uint64(len(entries)))
	if len(scanned) > 0 {
		l.opts.Journal.Record("wal_window_recover", int64(len(entries)))
	}
	return l, entries, nil
}

// openTail establishes the append target at the end of recovery: rotate to
// a fresh file when no recovered file survived (or the newest is at the
// rotation cap), otherwise reopen the newest for appending. Open is
// single-threaded, but taking l.mu keeps the rotation helpers under the
// same lock discipline as the steady state.
func (l *Log) openTail() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.files) == 0 || l.files[len(l.files)-1].size >= l.opts.FileBytes {
		return l.rotateLocked()
	}
	tail := l.files[len(l.files)-1]
	fh, err := l.opts.FS.OpenAppend(tail.path)
	if err != nil {
		return fmt.Errorf("wal: open %s: %w", tail.path, err)
	}
	l.active = fh
	return nil
}

// rotateLocked closes the current append target and starts a new file.
// Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if l.active != nil {
		l.syncLocked()
		if err := l.active.Close(); err != nil {
			l.active = nil
			l.wedgeErr = fmt.Errorf("%w (close on rotate: %v)", ErrWedged, err)
			return l.wedgeErr
		}
		l.active = nil
	}
	l.compactLocked()
	f := &walFile{
		seq:     l.nextSeq,
		path:    filepath.Join(l.opts.Dir, fileName(l.nextSeq)),
		unacked: make(map[uint64]struct{}),
	}
	l.nextSeq++
	fh, err := l.opts.FS.OpenAppend(f.path)
	if err != nil {
		// No usable append target: wedge rather than leave writeRecordLocked
		// facing a nil handle.
		l.wedgeErr = fmt.Errorf("%w (open %s: %v)", ErrWedged, f.path, err)
		return l.wedgeErr
	}
	l.files = append(l.files, f)
	l.active = fh
	return nil
}

// compactLocked removes fully-acked non-active files (lazy compaction).
// Callers hold l.mu.
func (l *Log) compactLocked() {
	kept := l.files[:0]
	for i, f := range l.files {
		if i == len(l.files)-1 && l.active != nil {
			kept = append(kept, f) // never remove the live append target
			continue
		}
		if len(f.unacked) > 0 {
			kept = append(kept, f)
			continue
		}
		if err := l.opts.FS.Remove(f.path); err != nil {
			kept = append(kept, f) // try again on the next compaction pass
			continue
		}
		l.live -= f.size
		l.opts.Metrics.Compacted.Inc()
		l.opts.Metrics.LiveBytes.Set(l.live)
		l.opts.Journal.Record("wal_file_compact", int64(f.seq))
	}
	l.files = kept
}

// syncLocked flushes the active file, counting successes. A sync failure
// is charged to wal_append_errors_total but does not wedge the log: the
// records are on their way to disk, and recovery truncation handles
// whatever a crash tears. Callers hold l.mu.
func (l *Log) syncLocked() {
	if l.active == nil {
		return
	}
	if err := l.active.Sync(); err != nil {
		l.opts.Metrics.AppendErrors.Inc()
		return
	}
	l.since = 0
	l.opts.Metrics.Synced.Inc()
}

// writeRecordLocked appends one framed record to the active file with
// truncate-back repair: a failed or short write rolls the file back to the
// previous record boundary so the tail stays parseable; if even the
// rollback fails the log wedges. Callers hold l.mu.
func (l *Log) writeRecordLocked(kind byte, payload []byte) error {
	tail := l.files[len(l.files)-1]
	if tail.size+int64(recHeader+len(payload)+recTrailer) > l.opts.FileBytes && tail.size > 0 {
		if err := l.rotateLocked(); err != nil {
			return err
		}
		tail = l.files[len(l.files)-1]
	}
	rec := appendRecord(nil, kind, payload)
	n, err := l.active.Write(rec)
	if err != nil || n != len(rec) {
		l.opts.Metrics.AppendErrors.Inc()
		if terr := l.opts.FS.Truncate(tail.path, tail.size); terr != nil {
			l.wedgeErr = fmt.Errorf("%w (write: %v, rollback: %v)", ErrWedged, err, terr)
			return l.wedgeErr
		}
		if err == nil {
			err = fmt.Errorf("wal: short write (%d of %d bytes)", n, len(rec))
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	tail.size += int64(len(rec))
	l.live += int64(len(rec))
	l.opts.Metrics.LiveBytes.Set(l.live)
	switch l.opts.Sync {
	case SyncEachRecord:
		l.syncLocked()
	case SyncBatched:
		l.since++
		if l.since >= l.opts.SyncEvery {
			l.syncLocked()
		}
	}
	return nil
}

// Append journals one admitted segment and returns its id. The caller
// keeps the id with the in-memory item and passes it to Ack when the
// segment has been finally handled. An error means the record is not
// durable (the segment should still ship from memory); after ErrWedged or
// ErrClosed every further Append fails fast.
func (l *Log) Append(seg backhaul.Segment) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.wedgeErr != nil {
		return 0, l.wedgeErr
	}
	encoded, err := backhaul.DefaultCodec.Encode(seg)
	if err != nil {
		l.opts.Metrics.AppendErrors.Inc()
		return 0, fmt.Errorf("wal: encode: %w", err)
	}
	id := l.nextID
	payload := make([]byte, 8+len(encoded))
	binary.BigEndian.PutUint64(payload, id)
	copy(payload[8:], encoded)
	if err := l.writeRecordLocked(recData, payload); err != nil {
		return 0, err
	}
	l.nextID++
	tail := l.files[len(l.files)-1]
	tail.unacked[id] = struct{}{}
	l.loc[id] = tail
	l.opts.Metrics.Appended.Inc()
	return id, nil
}

// Ack journals that the record with the given id has been finally handled
// (cloud report applied, busy-rejected, or drained through the degraded
// path) and lazily compacts any file left with no live records. Unknown
// ids are ignored. Disk trouble while writing the ack is absorbed: the
// worst outcome is a post-crash replay the cloud deduplicates.
func (l *Log) Ack(id uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.loc[id]
	if !ok || l.closed {
		return
	}
	delete(l.loc, id)
	delete(f.unacked, id)
	l.opts.Metrics.Acked.Inc()
	if l.wedgeErr == nil {
		var payload [8]byte
		binary.BigEndian.PutUint64(payload[:], id)
		// A lost ack record only costs a deduplicated replay;
		// writeRecordLocked already counts the fault.
		_ = l.writeRecordLocked(recAck, payload[:])
	}
	if len(f.unacked) == 0 && f != l.files[len(l.files)-1] {
		l.compactLocked()
	}
}

// Backlog reports the live (appended, unacked) record count — what a
// restart would replay.
func (l *Log) Backlog() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.loc)
}

// LiveBytes reports the bytes currently held across all WAL files.
func (l *Log) LiveBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.live
}

// Wedged returns the sticky unrepairable-fault error, if any.
func (l *Log) Wedged() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wedgeErr
}

// Close syncs and closes the log. A clean close with an empty backlog
// removes every WAL file: the next open recovers nothing, which is exactly
// the state the acks describe.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var firstErr error
	if l.active != nil {
		l.syncLocked()
		if err := l.active.Close(); err != nil {
			firstErr = err
		}
		l.active = nil
	}
	if len(l.loc) == 0 {
		for _, f := range l.files {
			if err := l.opts.FS.Remove(f.path); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			l.live -= f.size
			l.opts.Metrics.Compacted.Inc()
			l.opts.Metrics.LiveBytes.Set(l.live)
			l.opts.Journal.Record("wal_file_compact", int64(f.seq))
		}
		l.files = nil
	}
	return firstErr
}

// Abandon closes the file handle without syncing or compacting — the
// SIGKILL path of the restart soak: whatever the filesystem has is what
// recovery will see.
func (l *Log) Abandon() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	if l.active != nil {
		// Abandon models a crash; nothing can act on a close error.
		_ = l.active.Close()
		l.active = nil
	}
}
