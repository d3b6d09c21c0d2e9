//! # iixml — Representing and Querying XML with Incomplete Information
//!
//! A complete Rust implementation of the framework of Abiteboul, Segoufin
//! and Vianu, *"Representing and Querying XML with Incomplete
//! Information"* (PODS 2001): data trees with persistent node ids,
//! simplified DTDs (tree types), prefix-selection queries, conditional
//! tree types with specialization, incomplete trees, Algorithm Refine,
//! querying incomplete trees, conjunctive incomplete trees, mediator
//! guidance, and the Section 4 extensions.
//!
//! This facade crate re-exports the subsystem crates under stable module
//! names. See `README.md` for a tour and `DESIGN.md` for the system
//! inventory.
//!
//! ```
//! use iixml::prelude::*;
//!
//! // Build the paper's catalog tree type (Figure 1).
//! let mut alpha = Alphabet::new();
//! let ty = TreeTypeBuilder::new(&mut alpha)
//!     .root("catalog")
//!     .rule("catalog", &[("product", Mult::Plus)])
//!     .rule(
//!         "product",
//!         &[
//!             ("name", Mult::One),
//!             ("price", Mult::One),
//!             ("cat", Mult::One),
//!             ("picture", Mult::Star),
//!         ],
//!     )
//!     .rule("cat", &[("subcat", Mult::One)])
//!     .build()
//!     .unwrap();
//! assert_eq!(ty.roots().len(), 1);
//! ```

pub use iixml_core as core;
pub use iixml_extensions as extensions;
pub use iixml_gen as gen;
pub use iixml_mediator as mediator;
pub use iixml_oracle as oracle;
pub use iixml_query as query;
pub use iixml_tree as tree;
pub use iixml_values as values;
pub use iixml_webhouse as webhouse;

/// Convenient glob-import surface covering the common types.
pub mod prelude {
    pub use iixml_core::{
        ConditionalTreeType, ConjunctiveTree, IncompleteTree, Refiner, SymbolInfo, Verdict,
    };
    pub use iixml_mediator::{Completion, LocalQuery, Mediator};
    pub use iixml_query::{PsQuery, PsQueryBuilder};
    pub use iixml_tree::{
        Alphabet, DataTree, Label, Mult, MultAtom, Nid, NodeRef, TreeType, TreeTypeBuilder,
    };
    pub use iixml_values::{Cond, IntervalSet, Rat};
    pub use iixml_webhouse::{Source, Webhouse};
}
