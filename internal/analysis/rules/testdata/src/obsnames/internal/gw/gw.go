package gw

import "obsnames/internal/obs"

// Well-formed names: lowercase snake_case, >= 3 segments, unit suffix.
func good(r *obs.Registry) {
	_ = r.Counter("gateway_segments_shipped_total")
	_ = r.Gauge("farm_jobs_queued_count")
	_ = r.Counter("backhaul_bytes_sent_bytes")
}

func bad(r *obs.Registry) {
	_ = r.Counter("GatewaySegments")         // want "metric name \\\"GatewaySegments\\\" does not follow subsystem_name_unit"
	_ = r.Counter("gateway_total")           // want "metric name \\\"gateway_total\\\" does not follow subsystem_name_unit"
	_ = r.Gauge("gateway_shipped_segments")  // want "metric name \\\"gateway_shipped_segments\\\" does not follow subsystem_name_unit"
	_ = r.Counter("farm__wait_total")        // want "metric name \\\"farm__wait_total\\\" does not follow subsystem_name_unit"
	_ = r.Counter("farm_jobs_wait_samples")  // want "metric name \\\"farm_jobs_wait_samples\\\" does not follow subsystem_name_unit"
	_ = r.Counter("1gateway_segments_total") // want "metric name \\\"1gateway_segments_total\\\" does not follow subsystem_name_unit"
}

// Event names: subsystem_subject_verb, verb from the closed vocabulary.
func goodEvents(j *obs.Journal) {
	j.Record("backhaul_conn_die", 1)
	j.Record("gateway_degraded_enter", 0)
	j.Record("cloud_session_reap", 3)
	j.Record("fleet_shard_attach", 2)
}

func badEvents(j *obs.Journal) {
	j.Record("BackhaulDied", 1)         // want "event name \\\"BackhaulDied\\\" does not follow subsystem_subject_verb"
	j.Record("reconnect", 1)            // want "event name \\\"reconnect\\\" does not follow subsystem_subject_verb"
	j.Record("backhaul_conn_failed", 1) // want "event name \\\"backhaul_conn_failed\\\" does not follow subsystem_subject_verb"
	j.Record("gateway__busy_reject", 1) // want "event name \\\"gateway__busy_reject\\\" does not follow subsystem_subject_verb"
}

// Health-check names: subsystem_subject_condition, condition from the
// closed vocabulary.
func goodHealth(h *obs.Health) {
	h.Register("gateway_backhaul_connected", func() obs.CheckResult { return obs.CheckResult{Healthy: true} })
	h.RegisterReadiness("cloud_farm_headroom", func() obs.CheckResult { return obs.CheckResult{Healthy: true} })
}

func badHealth(h *obs.Health) {
	h.Register("backhaul_up", nil)           // want "health check name \\\"backhaul_up\\\" does not follow subsystem_subject_condition"
	h.RegisterReadiness("FarmHeadroom", nil) // want "health check name \\\"FarmHeadroom\\\" does not follow subsystem_subject_condition"
	h.RegisterReadiness("headroom", nil)     // want "health check name \\\"headroom\\\" does not follow subsystem_subject_condition"
}

// Durability vocabulary: the wal_* metric, event and health names added
// with the crash-durable spool must lint clean, and the obvious
// misnamings must not.
func goodWAL(r *obs.Registry, j *obs.Journal, h *obs.Health) {
	_ = r.Counter("wal_records_appended_total")
	_ = r.Counter("wal_truncated_records_total")
	_ = r.Gauge("wal_live_bytes")
	j.Record("wal_window_recover", 5)
	j.Record("wal_tail_truncate", 1)
	j.Record("wal_file_compact", 1)
	h.Register("wal_dir_ready", func() obs.CheckResult { return obs.CheckResult{Healthy: true} })
	h.RegisterReadiness("wal_backlog_headroom", func() obs.CheckResult { return obs.CheckResult{Healthy: true} })
}

func badWAL(r *obs.Registry, j *obs.Journal, h *obs.Health) {
	_ = r.Counter("wal_bytes")         // want "metric name \\\"wal_bytes\\\" does not follow subsystem_name_unit"
	_ = r.Gauge("wal_backlog_size")    // want "metric name \\\"wal_backlog_size\\\" does not follow subsystem_name_unit"
	j.Record("wal_truncated", 1)       // want "event name \\\"wal_truncated\\\" does not follow subsystem_subject_verb"
	j.Record("wal_tail_corruption", 1) // want "event name \\\"wal_tail_corruption\\\" does not follow subsystem_subject_verb"
	h.Register("wal_ok", nil)          // want "health check name \\\"wal_ok\\\" does not follow subsystem_subject_condition"
}

// Tracing vocabulary: the trace_* metric names of the distributed-tracing
// plane must lint clean, and the obvious misnamings must not. The trace
// store journals nothing, so no trace_* event verb exists: "sample" and
// "evict" are not in the vocabulary.
func goodTrace(r *obs.Registry) {
	_ = r.Counter("trace_spans_ingested_total")
	_ = r.Gauge("trace_traces_retained_count")
	_ = r.Counter("trace_traces_evicted_total")
}

func badTrace(r *obs.Registry, j *obs.Journal) {
	_ = r.Counter("trace_spans_ingested") // want "metric name \\\"trace_spans_ingested\\\" does not follow subsystem_name_unit"
	_ = r.Gauge("trace_retained")         // want "metric name \\\"trace_retained\\\" does not follow subsystem_name_unit"
	j.Record("trace_entry_sampled", 1)    // want "event name \\\"trace_entry_sampled\\\" does not follow subsystem_subject_verb"
	j.Record("trace_entry_evicted", 1)    // want "event name \\\"trace_entry_evicted\\\" does not follow subsystem_subject_verb"
	j.Record("trace_entry_sample", 1)     // want "event name \\\"trace_entry_sample\\\" does not follow subsystem_subject_verb"
	j.Record("trace_entry_evict", 1)      // want "event name \\\"trace_entry_evict\\\" does not follow subsystem_subject_verb"
}

// Dynamic names cannot be checked statically; the registries validate them
// at runtime instead.
func dynamic(r *obs.Registry, j *obs.Journal, tech string) {
	_ = r.Counter("gateway_frames_" + tech + "_total")
	j.Record("gateway_"+tech+"_establish", 1)
}

// A same-named method on an unrelated type is not a registration.
type fake struct{}

func (fake) Counter(name string) int { return 0 }

func (fake) Record(name string, value int64) {}

func (fake) Register(name string, check func()) {}

func unrelated() {
	var f fake
	_ = f.Counter("NotAMetric")
	f.Record("NotAnEvent", 1)
	f.Register("NotACheck", nil)
}
