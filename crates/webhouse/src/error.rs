//! Typed errors for the fault-tolerant source layer.
//!
//! The paper's mediator (Theorem 3.19) assumes sources that always
//! answer fully and correctly; real sources time out, return partial or
//! schema-violating answers, and get updated mid-session (the Section 5
//! discussion). This module gives every failure mode a name so the
//! webhouse loop can react per cause — retry what is transient,
//! quarantine what signals an update — instead of aborting on a bare
//! string.

use iixml_core::ItreeError;
use iixml_mediator::CompletionError;
use iixml_store::StoreError;
use iixml_tree::Nid;
use std::fmt;

/// A defect found while validating a shipped answer against the query
/// and the source's declared tree type (before grafting it into the
/// session's knowledge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// An answer node carries no match provenance (truncated or
    /// fabricated answer).
    MissingProvenance(Nid),
    /// Provenance refers to a node the source did not ship (sloppy
    /// truncation).
    DanglingProvenance(Nid),
    /// A matched node's label disagrees with the query pattern node it
    /// claims to match.
    LabelMismatch(Nid),
    /// A matched node's value violates the query condition it claims to
    /// satisfy.
    ConditionViolated(Nid),
    /// The answer's structure cannot be a prefix of any document
    /// satisfying the source's declared tree type.
    TypeViolation(Nid),
    /// An anchored answer is not rooted at its anchor node.
    WrongAnchor {
        /// The anchor the local query was addressed to.
        expected: Nid,
        /// The root the source actually shipped.
        got: Nid,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::MissingProvenance(n) => {
                write!(f, "answer node {n} has no match provenance")
            }
            ValidationError::DanglingProvenance(n) => {
                write!(f, "provenance names node {n} absent from the answer")
            }
            ValidationError::LabelMismatch(n) => {
                write!(f, "answer node {n} disagrees with its pattern node's label")
            }
            ValidationError::ConditionViolated(n) => {
                write!(f, "answer node {n} violates its pattern node's condition")
            }
            ValidationError::TypeViolation(n) => {
                write!(f, "answer node {n} violates the source's declared type")
            }
            ValidationError::WrongAnchor { expected, got } => {
                write!(f, "answer rooted at {got}, expected anchor {expected}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// A failure answering a query at a source endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The source did not answer in time.
    Timeout,
    /// A transient fault (connection reset, 5xx, ...); retrying may
    /// succeed.
    Transient(String),
    /// A local query's anchor node no longer exists at the source — the
    /// signature of a document replaced mid-session.
    MissingAnchor(Nid),
    /// A document does not satisfy the source's declared tree type
    /// (returned by [`crate::Source::try_new`] / `try_update`).
    TypeViolation(String),
    /// The source answered, but the answer failed validation.
    InvalidAnswer(ValidationError),
}

impl SourceError {
    /// May a retry of the same query succeed? Timeouts and transient
    /// faults obviously; a poisoned answer too (flaky sources corrupt
    /// intermittently). A missing anchor or type violation is a property
    /// of the source's state, not of the attempt.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            SourceError::Timeout | SourceError::Transient(_) | SourceError::InvalidAnswer(_)
        )
    }

    /// Does this failure signal that the source document was replaced
    /// (Section 5's dynamic-source discussion)? If so the session's
    /// accumulated knowledge is stale and must be quarantined rather
    /// than merely degraded.
    pub fn signals_update(&self) -> bool {
        matches!(self, SourceError::MissingAnchor(_))
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Timeout => write!(f, "source timed out"),
            SourceError::Transient(why) => write!(f, "transient source error: {why}"),
            SourceError::MissingAnchor(n) => write!(f, "anchor {n} no longer at source"),
            SourceError::TypeViolation(why) => {
                write!(f, "document violates declared type: {why}")
            }
            SourceError::InvalidAnswer(v) => write!(f, "answer rejected: {v}"),
        }
    }
}

impl std::error::Error for SourceError {}

/// Any failure of a webhouse operation: the typed hierarchy uniting
/// source faults, refinement errors ([`ItreeError`]) and completion
/// execution errors ([`CompletionError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WebhouseError {
    /// The source failed (after retries, where applicable).
    Source(SourceError),
    /// Folding an answer into the knowledge failed — an answer
    /// incompatible with what is already known is the signature of a
    /// source updated mid-session.
    Refine(ItreeError),
    /// Executing a completion's local queries failed.
    Completion(CompletionError),
    /// The accumulated knowledge became unsatisfiable (`rep = ∅`): some
    /// past answer was a lie or the source changed under us.
    Contradiction,
    /// The durability layer failed: a journal append, snapshot, or
    /// recovery error. The in-memory knowledge may be ahead of the
    /// journal; the session stops journaling (see
    /// `Session::journal_fault`) rather than risk a divergent log.
    Store(StoreError),
}

impl fmt::Display for WebhouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WebhouseError::Source(e) => write!(f, "{e}"),
            WebhouseError::Refine(e) => write!(f, "refine failed: {e}"),
            WebhouseError::Completion(e) => write!(f, "completion failed: {e}"),
            WebhouseError::Contradiction => {
                write!(f, "knowledge contradicts itself (source updated?)")
            }
            WebhouseError::Store(e) => write!(f, "durability failure: {e}"),
        }
    }
}

impl std::error::Error for WebhouseError {}

impl From<SourceError> for WebhouseError {
    fn from(e: SourceError) -> WebhouseError {
        WebhouseError::Source(e)
    }
}

impl From<ItreeError> for WebhouseError {
    fn from(e: ItreeError) -> WebhouseError {
        WebhouseError::Refine(e)
    }
}

impl From<CompletionError> for WebhouseError {
    fn from(e: CompletionError) -> WebhouseError {
        WebhouseError::Completion(e)
    }
}

impl From<StoreError> for WebhouseError {
    fn from(e: StoreError) -> WebhouseError {
        WebhouseError::Store(e)
    }
}
