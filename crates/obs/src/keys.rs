//! The workspace-wide registry of metric keys and environment
//! variables.
//!
//! Every counter, histogram, and span name emitted anywhere in the
//! workspace is declared here as a `pub const`, and every `IIXML_*`
//! environment variable read anywhere is declared in [`ENV_VARS`].
//! Emit sites reference these constants instead of spelling the string
//! again; `iixml-vet`'s `metrics` and `env` rules enforce that no
//! stray literal bypasses the registry. Before this module existed a
//! typo'd key silently created a brand-new metric (and a typo'd env
//! var silently read nothing); now both are compile-visible names and
//! the vet pass rejects the literal.
//!
//! Naming convention (see DESIGN.md §6): `<crate>.<area>.<metric>`,
//! durations in nanoseconds carry a `_ns` suffix, sizes and counts no
//! suffix. Dynamic families (one key per label, e.g. per-source fetch
//! latency) register their *prefix* here and build names through a
//! helper so the prefix spelling still has a single home.

// ---------------------------------------------------------------------
// core — Algorithm Refine and its automaton-product subroutines.

/// Refine steps executed (Theorem 3.4's loop).
pub const CORE_REFINE_STEPS: &str = "core.refine.steps";
/// Refine steps whose pair the knowledge already implied, so the
/// knowledge was left as it is (Theorem 3.4).
pub const CORE_REFINE_IMPLIED: &str = "core.refine.implied";
/// Refine steps that kept their trim product without running minimize,
/// because the product's certificate shows it minimal.
pub const CORE_REFINE_CERTIFIED: &str = "core.refine.certified";
/// Size of the `T_{q,A}` tree built per step.
pub const CORE_REFINE_TQA_SIZE: &str = "core.refine.tqa_size";
/// Fan-out of the ⋊⋉ join per node.
pub const CORE_REFINE_JOIN_FANOUT: &str = "core.refine.join_fanout";
/// Steps whose µ expansion multiplied disjuncts (Example 3.2 blowup).
pub const CORE_REFINE_DISJUNCTIVE_EXPANSIONS: &str = "core.refine.disjunctive_expansions";
/// Time in the `intersect` automaton product.
pub const CORE_REFINE_INTERSECT_NS: &str = "core.refine.intersect_ns";
/// Time trimming unproductive symbols.
pub const CORE_REFINE_TRIM_NS: &str = "core.refine.trim_ns";
/// Time in per-step minimization.
pub const CORE_REFINE_MINIMIZE_NS: &str = "core.refine.minimize_ns";
/// Distinct atoms interned per kernel-table build.
pub const CORE_INTERN_ATOMS: &str = "core.intern.atoms";
/// Distinct disjunctions interned per kernel-table build.
pub const CORE_INTERN_DISJS: &str = "core.intern.disjs";
/// Knowledge size after each step (post-minimization).
pub const CORE_REFINE_STEP_SIZE: &str = "core.refine.step_size";
/// Time restricting to a declared type (Theorem 3.5).
pub const CORE_TYPE_INTERSECT_RESTRICT_NS: &str = "core.type_intersect.restrict_ns";
/// Atoms produced per symbol pair in the type product.
pub const CORE_TYPE_INTERSECT_ATOM_FANOUT: &str = "core.type_intersect.atom_fanout";
/// Symbol pairs whose conditions were contradictory.
pub const CORE_TYPE_INTERSECT_CONTRADICTIONS: &str = "core.type_intersect.contradictions";
/// Time per bisimulation-minimization call.
pub const CORE_MINIMIZE_CALL_NS: &str = "core.minimize.call_ns";
/// Symbols merged away by minimization.
pub const CORE_MINIMIZE_SYMBOLS_MERGED: &str = "core.minimize.symbols_merged";
/// Partition signatures served from the intern table.
pub const CORE_MINIMIZE_INTERNED_SIGS: &str = "core.minimize.interned_sigs";
/// Minimize calls that returned their input unchanged (no merge, no
/// rebuild).
pub const CORE_MINIMIZE_UNCHANGED: &str = "core.minimize.unchanged";
/// Local answers decided without building `q(T)`: from the known data
/// tree, or certainly empty (Corollary 3.15).
pub const CORE_ASK_FROM_KNOWN: &str = "core.ask.from_known";
/// Local answers that fell back to building `q(T)` (Theorem 3.14).
pub const CORE_ASK_FROM_ANSWER_TYPE: &str = "core.ask.from_answer_type";

// ---------------------------------------------------------------------
// query — pattern evaluation.

/// `eval` calls.
pub const QUERY_EVAL_CALLS: &str = "query.eval.calls";
/// Candidate valuations examined per call.
pub const QUERY_EVAL_VALUATIONS: &str = "query.eval.valuations";
/// Answer nodes produced per call.
pub const QUERY_EVAL_ANSWER_NODES: &str = "query.eval.answer_nodes";

// ---------------------------------------------------------------------
// oracle — bounded world enumeration.

/// Worlds produced per enumeration.
pub const ORACLE_ENUMERATE_WORLDS: &str = "oracle.enumerate.worlds";
/// Enumerations cut off by a bound.
pub const ORACLE_ENUMERATE_TRUNCATIONS: &str = "oracle.enumerate.truncations";
/// Time per enumeration call.
pub const ORACLE_ENUMERATE_CALL_NS: &str = "oracle.enumerate.call_ns";

// ---------------------------------------------------------------------
// mediator — query decomposition over source views.

/// Time per mediated execution.
pub const MEDIATOR_EXECUTE_NS: &str = "mediator.execute_ns";
/// Time per completion run.
pub const MEDIATOR_COMPLETE_NS: &str = "mediator.complete_ns";
/// Local queries shipped to sources.
pub const MEDIATOR_LOCAL_QUERIES: &str = "mediator.local_queries";
/// Answer nodes shipped back from sources.
pub const MEDIATOR_SHIPPED_NODES: &str = "mediator.shipped_nodes";
/// Containment-cache lookups performed before fetch/mediation.
pub const MEDIATOR_CONTAINMENT_CHECKS: &str = "mediator.containment_checks";
/// Containment-cache lookups answered from recorded knowledge.
pub const MEDIATOR_CONTAINMENT_HITS: &str = "mediator.containment_hits";
/// Cache entries a containment lookup rejected because the label
/// skeletons differ (the descent's `Skeleton` mismatch).
pub const MEDIATOR_CONTAINMENT_FAST_REJECTS: &str = "mediator.containment_fast_rejects";

// ---------------------------------------------------------------------
// webhouse — sessions over unreliable sources (DESIGN.md §7).

/// Fetches retried after a transient fault.
pub const WEBHOUSE_RETRIES: &str = "webhouse.retries";
/// Source errors observed (pre-retry).
pub const WEBHOUSE_SOURCE_ERRORS: &str = "webhouse.source_errors";
/// Answers rejected by pre-graft validation.
pub const WEBHOUSE_VALIDATION_REJECTS: &str = "webhouse.validation_rejects";
/// Queries that fell back to a degraded local answer.
pub const WEBHOUSE_DEGRADED_ANSWERS: &str = "webhouse.degraded_answers";
/// Knowledge quarantines (§5 reinitialization).
pub const WEBHOUSE_QUARANTINES: &str = "webhouse.quarantines";
/// Simulated backoff waited per retry.
pub const WEBHOUSE_BACKOFF_NS: &str = "webhouse.backoff_ns";
/// Prefix of the per-source fetch-latency family; full names come from
/// [`webhouse_fetch_ns`].
pub const WEBHOUSE_FETCH_NS_PREFIX: &str = "webhouse.fetch_ns.";

/// The fetch-latency histogram name for one source label (the dynamic
/// `webhouse.fetch_ns.<label>` family).
pub fn webhouse_fetch_ns(label: &str) -> String {
    format!("{WEBHOUSE_FETCH_NS_PREFIX}{label}")
}

// ---------------------------------------------------------------------
// par — the scoped worker pool (DESIGN.md §8).

/// Tasks executed through `par_map` (all widths, including 1).
pub const PAR_TASKS: &str = "par.tasks";
/// Tasks a worker claimed outside its fair static share.
pub const PAR_STEALS: &str = "par.steals";
/// Worker width per `par_map` invocation.
pub const PAR_THREADS: &str = "par.threads";

// ---------------------------------------------------------------------
// store — the durable session journal (DESIGN.md §9).

/// Records appended to the WAL.
pub const STORE_APPENDS: &str = "store.appends";
/// fsync calls issued.
pub const STORE_FSYNCS: &str = "store.fsyncs";
/// Frames rejected by CRC during recovery.
pub const STORE_CRC_REJECTS: &str = "store.crc_rejects";
/// Torn tails truncated during recovery.
pub const STORE_TORN_TAILS: &str = "store.torn_tails";
/// Records replayed during recovery.
pub const STORE_REPLAYED: &str = "store.replayed";
/// Snapshot payload sizes written.
pub const STORE_SNAPSHOT_BYTES: &str = "store.snapshot_bytes";
/// Records buffered through the group-commit writer.
pub const STORE_BATCHED_APPENDS: &str = "store.batched_appends";
/// Group-commit flushes (one buffered write + fsync each).
pub const STORE_BATCH_FLUSHES: &str = "store.batch_flushes";
/// WAL segments retired by compaction (fully snapshot-covered).
pub const STORE_SEGMENTS_RETIRED: &str = "store.segments_retired";
/// Write-path I/O failures (write/fsync/rename/remove) that poisoned a
/// writer or aborted a snapshot.
pub const STORE_IO_FAULTS: &str = "store.io_faults";
/// Directory-fsync failures propagated from retire/snapshot install.
pub const STORE_DIR_SYNC_FAILS: &str = "store.dir_sync_fails";

// ---------------------------------------------------------------------
// serve — the multi-tenant TCP session server (DESIGN.md §12).

/// Connections accepted.
pub const SERVE_ACCEPTED: &str = "serve.conn.accepted";
/// Requests admitted and executed.
pub const SERVE_REQUESTS: &str = "serve.req.admitted";
/// Requests refused by admission control (backpressure).
pub const SERVE_SHED: &str = "serve.req.shed";
/// Connections degraded by a frame fault (garbage, bad CRC, version).
pub const SERVE_FRAME_ERRORS: &str = "serve.conn.frame_errors";
/// Connections degraded by a deadline miss or slow-loris budget.
pub const SERVE_CONN_TIMEOUTS: &str = "serve.conn.timeouts";
/// Sessions opened fresh.
pub const SERVE_SESSIONS_OPENED: &str = "serve.session.opened";
/// Sessions recovered from their journal at restart.
pub const SERVE_SESSIONS_RECOVERED: &str = "serve.session.recovered";
/// Sessions closed (synced and discarded) on client request.
pub const SERVE_SESSIONS_CLOSED: &str = "serve.session.closed";
/// Request frame body sizes (bytes).
pub const SERVE_FRAME_BYTES: &str = "serve.req.frame_bytes";

// ---------------------------------------------------------------------
// The iterable registry.

/// Every registered counter key.
pub const COUNTERS: &[&str] = &[
    CORE_REFINE_STEPS,
    CORE_REFINE_IMPLIED,
    CORE_REFINE_CERTIFIED,
    CORE_REFINE_DISJUNCTIVE_EXPANSIONS,
    CORE_TYPE_INTERSECT_CONTRADICTIONS,
    CORE_MINIMIZE_SYMBOLS_MERGED,
    CORE_MINIMIZE_INTERNED_SIGS,
    CORE_MINIMIZE_UNCHANGED,
    CORE_ASK_FROM_KNOWN,
    CORE_ASK_FROM_ANSWER_TYPE,
    CORE_INTERN_ATOMS,
    CORE_INTERN_DISJS,
    QUERY_EVAL_CALLS,
    ORACLE_ENUMERATE_TRUNCATIONS,
    MEDIATOR_LOCAL_QUERIES,
    MEDIATOR_SHIPPED_NODES,
    MEDIATOR_CONTAINMENT_CHECKS,
    MEDIATOR_CONTAINMENT_HITS,
    MEDIATOR_CONTAINMENT_FAST_REJECTS,
    WEBHOUSE_RETRIES,
    WEBHOUSE_SOURCE_ERRORS,
    WEBHOUSE_VALIDATION_REJECTS,
    WEBHOUSE_DEGRADED_ANSWERS,
    WEBHOUSE_QUARANTINES,
    PAR_TASKS,
    PAR_STEALS,
    STORE_APPENDS,
    STORE_FSYNCS,
    STORE_CRC_REJECTS,
    STORE_TORN_TAILS,
    STORE_REPLAYED,
    STORE_BATCHED_APPENDS,
    STORE_BATCH_FLUSHES,
    STORE_SEGMENTS_RETIRED,
    STORE_IO_FAULTS,
    STORE_DIR_SYNC_FAILS,
    SERVE_ACCEPTED,
    SERVE_REQUESTS,
    SERVE_SHED,
    SERVE_FRAME_ERRORS,
    SERVE_CONN_TIMEOUTS,
    SERVE_SESSIONS_OPENED,
    SERVE_SESSIONS_RECOVERED,
    SERVE_SESSIONS_CLOSED,
];

/// Every registered fixed-name histogram key.
pub const HISTOGRAMS: &[&str] = &[
    CORE_REFINE_TQA_SIZE,
    CORE_REFINE_JOIN_FANOUT,
    CORE_REFINE_INTERSECT_NS,
    CORE_REFINE_TRIM_NS,
    CORE_REFINE_MINIMIZE_NS,
    CORE_REFINE_STEP_SIZE,
    CORE_TYPE_INTERSECT_RESTRICT_NS,
    CORE_TYPE_INTERSECT_ATOM_FANOUT,
    CORE_MINIMIZE_CALL_NS,
    QUERY_EVAL_VALUATIONS,
    QUERY_EVAL_ANSWER_NODES,
    ORACLE_ENUMERATE_WORLDS,
    ORACLE_ENUMERATE_CALL_NS,
    MEDIATOR_EXECUTE_NS,
    MEDIATOR_COMPLETE_NS,
    WEBHOUSE_BACKOFF_NS,
    PAR_THREADS,
    STORE_SNAPSHOT_BYTES,
    SERVE_FRAME_BYTES,
];

/// Prefixes of dynamic (per-label) metric families.
pub const DYNAMIC_PREFIXES: &[&str] = &[WEBHOUSE_FETCH_NS_PREFIX];

/// Is `name` a registered key — a fixed counter or histogram name, or
/// a member of a registered dynamic family?
pub fn is_registered(name: &str) -> bool {
    COUNTERS.contains(&name)
        || HISTOGRAMS.contains(&name)
        || DYNAMIC_PREFIXES
            .iter()
            .any(|p| name.starts_with(p) && name.len() > p.len())
}

// ---------------------------------------------------------------------
// Environment variables.

/// Enables metric collection (`1`, `true`, `on`, `yes`).
pub const ENV_OBS: &str = "IIXML_OBS";
/// Worker width for `iixml-par` (`1` = sequential).
pub const ENV_PAR_THREADS: &str = "IIXML_PAR_THREADS";
/// Base seed for deterministic property/chaos tests.
pub const ENV_TEST_SEED: &str = "IIXML_TEST_SEED";
/// Cases per property in the in-tree property-test harness.
pub const ENV_PROPTEST_CASES: &str = "IIXML_PROPTEST_CASES";
/// TCP port `iixml serve` binds (0 = ephemeral).
pub const ENV_SERVE_PORT: &str = "IIXML_SERVE_PORT";
/// Session-map shard count for `iixml serve`.
pub const ENV_SERVE_SHARDS: &str = "IIXML_SERVE_SHARDS";
/// Per-tenant open-session cap.
pub const ENV_SERVE_MAX_SESSIONS: &str = "IIXML_SERVE_MAX_SESSIONS";
/// Per-tenant in-flight request cap.
pub const ENV_SERVE_MAX_INFLIGHT: &str = "IIXML_SERVE_MAX_INFLIGHT";
/// Per-tenant token-bucket burst (refilled every refill tick).
pub const ENV_SERVE_QUOTA: &str = "IIXML_SERVE_QUOTA";
/// Per-connection read deadline in milliseconds.
pub const ENV_SERVE_READ_TIMEOUT_MS: &str = "IIXML_SERVE_READ_TIMEOUT_MS";
/// Per-connection write deadline in milliseconds.
pub const ENV_SERVE_WRITE_TIMEOUT_MS: &str = "IIXML_SERVE_WRITE_TIMEOUT_MS";
/// Seed for the store's deterministic write-path fault injector.
pub const ENV_STORE_FAULT_SEED: &str = "IIXML_STORE_FAULT_SEED";
/// Per-operation fault probability for the store injector (0.0–1.0).
pub const ENV_STORE_FAULT_RATE: &str = "IIXML_STORE_FAULT_RATE";
/// Fail exactly the Nth store I/O operation (1-based).
pub const ENV_STORE_FAULT_AT: &str = "IIXML_STORE_FAULT_AT";
/// Toggle for the webhouse containment-keyed answer cache (default on;
/// `0`/`false`/`off`/`no` disable it).
pub const ENV_CONTAIN_CACHE: &str = "IIXML_CONTAIN_CACHE";

/// Every `IIXML_*` environment variable the workspace reads, with a
/// one-line purpose. `iixml-vet`'s `env` rule checks that no other
/// `IIXML_*` literal exists and that each entry is documented in
/// README.md.
pub const ENV_VARS: &[(&str, &str)] = &[
    (ENV_OBS, "enable metric collection"),
    (ENV_PAR_THREADS, "worker width for parallel maps"),
    (ENV_TEST_SEED, "base seed for deterministic tests"),
    (ENV_PROPTEST_CASES, "cases per property test"),
    (ENV_SERVE_PORT, "TCP port for iixml serve (0 = ephemeral)"),
    (ENV_SERVE_SHARDS, "session-map shard count"),
    (ENV_SERVE_MAX_SESSIONS, "per-tenant open-session cap"),
    (ENV_SERVE_MAX_INFLIGHT, "per-tenant in-flight request cap"),
    (ENV_SERVE_QUOTA, "per-tenant token-bucket burst"),
    (
        ENV_SERVE_READ_TIMEOUT_MS,
        "per-connection read deadline (ms)",
    ),
    (
        ENV_SERVE_WRITE_TIMEOUT_MS,
        "per-connection write deadline (ms)",
    ),
    (
        ENV_STORE_FAULT_SEED,
        "seed for the store write-path fault injector",
    ),
    (
        ENV_STORE_FAULT_RATE,
        "per-operation store fault probability",
    ),
    (
        ENV_STORE_FAULT_AT,
        "fail exactly the Nth store I/O operation",
    ),
    (
        ENV_CONTAIN_CACHE,
        "toggle the containment-keyed answer cache (default on)",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &k in COUNTERS.iter().chain(HISTOGRAMS) {
            assert!(seen.insert(k), "duplicate metric key {k}");
            assert!(
                k.split('.').count() >= 2
                    && k.split('.').all(|p| !p.is_empty()
                        && p.chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')),
                "malformed metric key {k}"
            );
        }
        for &p in DYNAMIC_PREFIXES {
            assert!(p.ends_with('.'), "dynamic prefix {p} must end with '.'");
            assert!(
                !seen.contains(p.trim_end_matches('.')),
                "dynamic prefix {p} collides with a fixed key"
            );
        }
    }

    #[test]
    fn dynamic_family_membership() {
        assert!(is_registered(&webhouse_fetch_ns("anon")));
        assert!(is_registered(CORE_REFINE_STEPS));
        assert!(!is_registered("webhouse.fetch_ns."));
        assert!(!is_registered("core.refine.typo"));
    }

    #[test]
    fn env_vars_are_unique_iixml_prefixed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, doc) in ENV_VARS {
            assert!(seen.insert(name), "duplicate env var {name}");
            assert!(name.starts_with("IIXML_"), "bad env var prefix {name}");
            assert!(!doc.is_empty());
        }
    }
}
