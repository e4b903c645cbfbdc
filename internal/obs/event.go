// Package obs is the fleet-wide observability backbone: a bounded,
// lock-cheap event bus that every layer publishes lifecycle events
// into (wave transitions, journal checkpoints and recoveries, breaker
// state changes, admission sheds, degraded replies, slow queries,
// netfault injections), and a rolling-window SLO engine that turns the
// per-command request stream into error-budget burn rates.
//
// The package follows the same discipline as internal/metrics: no
// dependencies beyond the standard library, and every exported method
// is safe on a nil receiver, so instrumented code carries no
// conditionals — a nil *Bus swallows publishes, a nil *Engine swallows
// records.
package obs

import "time"

// Event types, namespaced by the layer that emits them. The set is
// open — consumers must tolerate types they do not know — but these
// constants cover every producer wired in this repository.
const (
	// EventTransition marks one phase of a wave transition (§5 of the
	// paper): Phase is "pre", "work", or "post"; Day the transition's
	// new day; Ops the phase's operation count; DurationUS its length.
	// A "post" event for day N is closed by day N+1's transition (or a
	// flush), so it arrives one ingest later. Work-phase boundaries
	// carry the per-cause simdisk delta in Fields when available.
	EventTransition = "wave.transition"
	// EventCheckpoint marks a journal checkpoint: Day is the last day
	// captured by the snapshot.
	EventCheckpoint = "journal.checkpoint"
	// EventRecovery marks a journal recovery: Ops is the number of
	// replayed days, Day the highest day after replay.
	EventRecovery = "journal.recovery"
	// EventBreaker marks a shard circuit-breaker state change: Phase is
	// the state entered, Cause the state left ("open" from "closed", ...).
	EventBreaker = "breaker.state"
	// EventShed marks an admission-control shed: the server turned a
	// command away with BUSY because too many requests were in flight.
	EventShed = "admission.shed"
	// EventDegraded marks a degraded (partial) reply: Shard is the
	// skipped slice, Cause why it was skipped.
	EventDegraded = "query.degraded"
	// EventUnavailable marks a query refused outright because required
	// shards were unreachable and the caller did not opt into partial
	// results.
	EventUnavailable = "query.unavailable"
	// EventSlowQuery marks a whole-query span over the slow threshold;
	// TraceID links it to the span in /debug/spans.
	EventSlowQuery = "query.slow"
	// EventNetFault marks an injected wire fault (netfault package).
	EventNetFault = "netfault.injected"
	// EventCacheInvalidate marks result-cache invalidation by a wave
	// transition: Day is the transition's day, Ops how many cached
	// entries the moved constituent generations purged, Value the
	// entries still resident — DEL and WATA* rolls keep most of the
	// cache, REINDEX empties it.
	EventCacheInvalidate = "cache.invalidate"
	// EventSLOBurn and EventSLOOK mark an SLO burn-rate threshold
	// crossing and its clearing: Cmd is the command, Cause the window,
	// Value the burn rate in milli-units.
	EventSLOBurn = "slo.burn"
	EventSLOOK   = "slo.ok"
)

// Event is one entry on the timeline. Seq is assigned by the bus at
// publish time and is strictly increasing; everything else is filled
// by the producer. Unused fields stay zero and are omitted from JSON.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	// Shard is the 0-based shard the event concerns; -1 for fleet-wide
	// events (and for single-index deployments, which report shard 0).
	Shard int `json:"shard"`

	Cmd        string `json:"cmd,omitempty"`     // wire command, for query-side events
	Phase      string `json:"phase,omitempty"`   // transition phase
	Cause      string `json:"cause,omitempty"`   // breaker transition, degradation cause, SLO window
	TraceID    string `json:"traceId,omitempty"` // caller trace ID, when the producer had one
	Day        int    `json:"day,omitempty"`
	Ops        int    `json:"ops,omitempty"`
	DurationUS int64  `json:"durationUs,omitempty"`
	// Value is a type-specific magnitude: SLO burn rate in milli-units,
	// in-flight count for sheds.
	Value int64 `json:"value,omitempty"`
	// Fields carries low-cardinality extras (per-cause work deltas on
	// transition events, netfault op/action).
	Fields map[string]string `json:"fields,omitempty"`
}
