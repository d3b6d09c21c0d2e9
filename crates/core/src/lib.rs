#![warn(missing_docs)]

//! The core of the paper: conditional tree types, incomplete trees,
//! Algorithm Refine, querying with incomplete information, and
//! conjunctive incomplete trees.
//!
//! Module map (paper section in parentheses):
//! * [`ctt`] — conditional tree types with specialization, emptiness,
//!   useless-symbol removal (§2, Lemma 2.5, Corollary 2.6);
//! * [`itree`] — incomplete trees, `rep` membership, well-formedness,
//!   unambiguity (§2, Definitions 2.7 and 3.1);
//! * [`prefix`] — certain/possible prefix tests (Theorem 2.8);
//! * [`refine`] — `T_{q,A}` construction, intersection of unambiguous
//!   incomplete trees, Algorithm Refine (§3.1, Lemmas 3.2–3.3,
//!   Theorem 3.4);
//! * [`type_intersect`] — intersection with the source tree type
//!   (Theorem 3.5);
//! * [`answer`] — querying incomplete trees: `q(T)`, full
//!   answerability, certain/possible answers (§3.3, Theorem 3.14,
//!   Corollaries 3.15 and 3.18);
//! * [`conjunctive`] — conjunctive incomplete trees and Refine⁺ (§3.2,
//!   Theorems 3.8 and 3.10).

pub mod answer;
pub mod conjunctive;
pub mod ctt;
pub mod intern;
pub mod io;
pub mod itree;
pub mod minimize;
pub mod prefix;
pub mod refine;
pub mod type_intersect;

pub use answer::{match_sets, Determination, MatchSets, QueryOnIncomplete, Verdict};
pub use conjunctive::ConjunctiveTree;
pub use ctt::{ConditionalTreeType, Disjunction, SAtom, Sym, SymTarget, SymbolInfo};
pub use itree::{IncompleteTree, ItreeError, NodeInfo};
pub use refine::Refiner;
