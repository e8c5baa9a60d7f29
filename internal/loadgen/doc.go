// Package loadgen is the one load generator behind rtmap-load, the
// cluster chaos suite and the rtmap-bench -slo/-cluster drivers: a pool
// of pre-built /v1/infer bodies fired at a server or router base URL in
// closed loop (shared or per-body pinned workers) or open loop (a
// catch-up pacer at a target arrival rate).
//
// Every attempt lands in one outcome taxonomy — ok, http_429, http_503,
// http_4xx, http_5xx, connect_refused, timeout, reset, other — with
// cancelled reserved for the caller's own context ending (not counted
// at all). Transient outcomes are re-fired under a retry budget with
// capped exponential backoff. Every 200 is checked bit for bit: against
// the body's expected logits when given, otherwise against the first
// answer seen for that body (inference is deterministic, so any
// divergence means a retry, hedge, failover or batch corrupted a
// result). A request mix assigns each request a class and deadline from
// a deterministic proportional schedule, and the Result ledger counts
// outcomes, goodput and latencies in total and per class.
package loadgen
