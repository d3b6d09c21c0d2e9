//! A served session's source: the generated catalog document
//! `iixml_gen::catalog(products, seed)` that a session's `Open` names.
//!
//! A webhouse keeps its knowledge and asks the source only for what is
//! missing (Section 5), so a session recovered after a restart needs its
//! source only at its first Fetch or Mediate that reaches it, or when a
//! rebase needs the declared type. [`CatalogSource`] therefore holds
//! `(products, seed)` and generates the catalog on the first call that
//! needs it; an Ask answered from the knowledge never does. `Open`
//! builds the catalog at once, since its alphabet and declared type seed
//! the new session's knowledge.

use std::cell::OnceCell;

use iixml_query::{Answer, PsQuery};
use iixml_tree::{Nid, TreeType};
use iixml_webhouse::{Source, SourceEndpoint, SourceError};

/// The catalog source of one served session, generated on first use.
#[derive(Debug)]
pub struct CatalogSource {
    products: usize,
    seed: u64,
    source: OnceCell<Source>,
}

impl CatalogSource {
    /// The source of `catalog(products, seed)`, not yet generated.
    pub fn lazy(products: usize, seed: u64) -> CatalogSource {
        CatalogSource {
            products,
            seed,
            source: OnceCell::new(),
        }
    }

    /// The source of `catalog(products, seed)`, already generated as
    /// `source`.
    pub fn built(products: usize, seed: u64, source: Source) -> CatalogSource {
        CatalogSource {
            products,
            seed,
            source: OnceCell::from(source),
        }
    }

    /// Has the catalog been generated?
    pub fn is_built(&self) -> bool {
        self.source.get().is_some()
    }

    fn source(&self) -> &Source {
        self.source
            .get_or_init(|| generate(self.products, self.seed))
    }

    fn source_mut(&mut self) -> &mut Source {
        self.source();
        // `source()` fills the cell if it was empty.
        self.source
            .get_mut()
            .expect("the catalog source is generated")
    }
}

fn generate(products: usize, seed: u64) -> Source {
    let cat = iixml_gen::catalog(products, seed);
    Source::new(cat.doc, Some(cat.ty))
}

impl SourceEndpoint for CatalogSource {
    fn declared_type(&self) -> Option<&TreeType> {
        self.source().declared_type()
    }

    fn ask(&mut self, q: &PsQuery) -> Result<Answer, SourceError> {
        self.source_mut().ask(q)
    }

    fn ask_at(&mut self, q: &PsQuery, at: Nid) -> Result<Answer, SourceError> {
        self.source_mut().ask_at(q, at)
    }

    fn queries_served(&self) -> usize {
        self.source.get().map_or(0, |s| s.queries_served)
    }

    fn nodes_shipped(&self) -> usize {
        self.source.get().map_or(0, |s| s.nodes_shipped)
    }
}
