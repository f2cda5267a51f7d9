// Command galiot-wal inspects a gateway's write-ahead-log directory
// offline: it parses every wal-*.log file with the same framing, CRC32C
// checks and first-bad-frame cut that recovery uses, but mutates nothing —
// no truncation, no compaction — so it is safe to point at a live or
// post-crash WAL.
//
// For each file it reports the checksum-clean data and ack records (with
// each data record's segment position, size and embedded trace ID) and any
// torn tail; the summary lists the live records — what a restart would
// replay — and how many of them carry trace context.
//
//	galiot-wal -dir /var/lib/galiot/wal            # human-readable report
//	galiot-wal -dir ./wal -records                 # include per-record dump
//	galiot-wal -dir ./wal -json                    # machine-readable
//	galiot-wal -dir ./wal -verify                  # exit 1 on torn bytes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/resilience/wal"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its exit code returned: 1 on an inspection failure or
// a -verify finding, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("galiot-wal", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		dir     = fl.String("dir", "", "WAL directory to inspect (required)")
		asJSON  = fl.Bool("json", false, "emit the full report as JSON")
		records = fl.Bool("records", false, "list every record, not just per-file totals")
		verify  = fl.Bool("verify", false, "exit non-zero if any file holds a torn or corrupt tail")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *dir == "" {
		printf(stderr, "galiot-wal: -dir is required\n")
		return 2
	}

	rep, err := wal.Inspect(*dir)
	if err != nil {
		printf(stderr, "galiot-wal: %v\n", err)
		return 1
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			printf(stderr, "galiot-wal: %v\n", err)
			return 1
		}
	} else {
		printReport(stdout, rep, *records)
	}

	if *verify && rep.TornBytes > 0 {
		printf(stderr, "galiot-wal: VERIFY FAIL: %d torn bytes\n", rep.TornBytes)
		return 1
	}
	return 0
}

// printf writes formatted output, explicitly discarding the write error as
// terminal output does.
func printf(w io.Writer, format string, args ...any) { _, _ = fmt.Fprintf(w, format, args...) }

func printReport(w io.Writer, rep *wal.Report, records bool) {
	printf(w, "%s: %d files\n", rep.Dir, len(rep.Files))
	for _, f := range rep.Files {
		printf(w, "  %s: %d bytes, %d data, %d acks", f.Name, f.Bytes, f.Data, f.Acks)
		if f.TornBytes > 0 {
			printf(w, ", TORN TAIL %d bytes", f.TornBytes)
		}
		printf(w, "\n")
		if records {
			for _, r := range f.Records {
				switch r.Kind {
				case "data":
					printf(w, "    data id=%d start=%d samples=%d", r.ID, r.SegStart, r.SegSamples)
					if r.TraceID != 0 {
						printf(w, " trace=0x%016x", r.TraceID)
					}
					printf(w, "\n")
				case "ack":
					printf(w, "    ack  id=%d\n", r.ID)
				}
			}
		}
	}
	printf(w, "totals: %d data records, %d acks, %d live (unacked), %d of them traced",
		rep.DataRecords, rep.AckRecords, len(rep.Live), rep.Traced)
	if rep.TornBytes > 0 {
		printf(w, ", %d torn bytes", rep.TornBytes)
	}
	printf(w, "\n")
	for _, r := range rep.Live {
		printf(w, "  live id=%d start=%d samples=%d", r.ID, r.SegStart, r.SegSamples)
		if r.TraceID != 0 {
			printf(w, " trace=0x%016x", r.TraceID)
		}
		printf(w, "\n")
	}
}
