package wal

import (
	"fmt"
	"sort"

	"repro/internal/faults"
)

// RecordInfo is one parsed WAL record, as Inspect reports it.
type RecordInfo struct {
	// Kind is "data" or "ack".
	Kind string `json:"kind"`
	// ID is the data record's log id, or the id an ack record retires.
	ID uint64 `json:"id"`
	// SegStart and SegSamples describe a data record's segment.
	SegStart   int64 `json:"seg_start,omitempty"`
	SegSamples int   `json:"seg_samples,omitempty"`
	// TraceID is the trace context journaled with the segment (0 when the
	// segment was admitted untraced or by a pre-v3 build).
	TraceID uint64 `json:"trace_id,omitempty"`
}

// FileReport is one WAL file's inspection result.
type FileReport struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
	// Data and Acks count the checksum-clean records by kind.
	Data int `json:"data_records"`
	Acks int `json:"ack_records"`
	// TornBytes is the unparseable tail: bytes after the first bad frame.
	// Recovery would truncate exactly these.
	TornBytes int64 `json:"torn_bytes,omitempty"`
	// Records lists every clean record in file order.
	Records []RecordInfo `json:"records,omitempty"`
}

// Report is a whole-directory WAL inspection.
type Report struct {
	Dir   string       `json:"dir"`
	Files []FileReport `json:"files"`
	// DataRecords and AckRecords total the clean records across files.
	DataRecords int `json:"data_records"`
	AckRecords  int `json:"ack_records"`
	// Live is what a restart would replay: data records never acked.
	Live []RecordInfo `json:"live,omitempty"`
	// Traced counts live records whose segment carries a trace ID — after
	// recovery each replays on its original trace with a wal_replay stage.
	Traced int `json:"traced"`
	// TornBytes totals the unparseable tails across files.
	TornBytes int64 `json:"torn_bytes,omitempty"`
}

// Inspect reads a WAL directory without opening it for writing: it parses
// every record with recovery's own scanner (same framing, same checksums,
// same first-bad-frame cut) but mutates nothing — no truncation, no
// compaction, no append target. The error covers only directory-level
// failures; corrupt contents are reported, not failed on.
func Inspect(dir string) (*Report, error) {
	if dir == "" {
		return nil, fmt.Errorf("wal: inspect: empty dir")
	}
	scanned, name, err := scanDir(faults.OS(), dir)
	if err != nil {
		if name == "" {
			name = dir
		}
		return nil, fmt.Errorf("wal: inspect %s: %w", name, err)
	}

	rep := &Report{Dir: dir}
	acked := make(map[uint64]struct{})
	var live []RecordInfo
	for _, sf := range scanned {
		fr := FileReport{Name: sf.name, Bytes: sf.size, TornBytes: sf.size - sf.good}
		for _, r := range sf.recs {
			fr.Records = append(fr.Records, r.RecordInfo)
			if r.Kind == "ack" {
				fr.Acks++
				acked[r.ID] = struct{}{}
				continue
			}
			fr.Data++
			live = append(live, r.RecordInfo)
		}
		rep.DataRecords += fr.Data
		rep.AckRecords += fr.Acks
		rep.TornBytes += fr.TornBytes
		rep.Files = append(rep.Files, fr)
	}
	for _, info := range live {
		if _, ok := acked[info.ID]; ok {
			continue
		}
		rep.Live = append(rep.Live, info)
		if info.TraceID != 0 {
			rep.Traced++
		}
	}
	sort.Slice(rep.Live, func(i, j int) bool { return rep.Live[i].ID < rep.Live[j].ID })
	return rep, nil
}
