//! ID-interned, struct-of-arrays storage for multiplicity atoms and
//! disjunctions — the integer-indexed kernel representation behind the
//! refine/minimize hot paths.
//!
//! The CPU-bound kernels (the `⋊⋉` product of Lemma 3.3 and the
//! bisimulation partition refinement of `minimize`) used to compare and
//! hash nested `Vec<Vec<…>>` structures per symbol per round. This
//! module hash-conses those structures once into append-only tables:
//! equal content maps to the *same* `u32` id, so every later comparison
//! and hash is over flat integer slices. Storage is struct-of-arrays —
//! one flat payload vector plus a span table — so a table of a million
//! atoms is two allocations, not a million.
//!
//! # Determinism
//!
//! Ids are assigned in first-encounter order of the *content*, and
//! every caller interns in a deterministic order (symbol order, then
//! atom order within a µ). The internal probe tables use a fixed
//! FNV-1a-style hash — no `RandomState`, no per-process seeds — and id
//! assignment never depends on probe order, only on insertion order.
//! Two runs over the same input therefore assign identical ids, which
//! is what lets the minimize partition use raw ids as canonical keys
//! without leaking nondeterminism into block numbering (pinned by
//! `tests/intern_equiv.rs`).
//!
//! Every lookup is written with `get`-style accessors, so the module
//! needs no bounds-panic waivers: a (impossible, tested) out-of-range
//! id yields an empty slice rather than a panic.

use crate::ctt::{ConditionalTreeType, Sym};
use iixml_obs::{keys, LazyCounter};
use iixml_tree::Mult;

/// Distinct atoms interned across all tables.
static OBS_ATOMS: LazyCounter = LazyCounter::new(keys::CORE_INTERN_ATOMS);
/// Distinct disjunctions interned across all tables.
static OBS_DISJS: LazyCounter = LazyCounter::new(keys::CORE_INTERN_DISJS);

/// Id of an interned atom (entry slice) in an [`InternTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The id as a table index.
    pub fn ix(self) -> usize {
        self.0 as usize
    }
}

/// Id of an interned disjunction (atom-id slice) in an [`InternTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct DisjId(pub u32);

impl DisjId {
    /// The id as a table index.
    pub fn ix(self) -> usize {
        self.0 as usize
    }
}

/// One fixed-function hash unit per interned element. The mix constants
/// are FNV-1a's; the point is not cryptography but a *fixed* function:
/// the same content hashes the same in every process, unlike
/// `RandomState`.
pub trait HashUnit: Copy + Eq {
    /// A 64-bit projection of the element, fed to the slice hash.
    fn unit(self) -> u64;
}

impl HashUnit for u32 {
    fn unit(self) -> u64 {
        self as u64
    }
}

impl HashUnit for AtomId {
    fn unit(self) -> u64 {
        self.0 as u64
    }
}

impl HashUnit for (Sym, Mult) {
    fn unit(self) -> u64 {
        ((self.0.ix() as u64) << 2) | self.1 as u64
    }
}

impl HashUnit for (u32, Mult) {
    fn unit(self) -> u64 {
        ((self.0 as u64) << 2) | self.1 as u64
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn hash_slice<T: HashUnit>(slice: &[T]) -> u64 {
    let mut h = FNV_OFFSET ^ slice.len() as u64;
    for &x in slice {
        h = (h ^ x.unit()).wrapping_mul(FNV_PRIME);
    }
    // Final avalanche: FNV's low bits are weak and the probe table
    // masks with them.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 29)
}

/// Open-addressing probe table mapping precomputed hashes to ids.
/// Stores `(hash, id)` pairs so growth rehashes without touching the
/// interned payloads; the load factor stays below 1/2 so every probe
/// chain hits an empty slot.
struct ProbeTable {
    slots: Vec<(u64, u32)>,
}

const EMPTY: u32 = u32::MAX;

impl ProbeTable {
    fn new() -> ProbeTable {
        ProbeTable {
            slots: vec![(0, EMPTY); 64],
        }
    }

    /// Grows (if needed) so one more insert keeps load < 1/2.
    fn reserve_one(&mut self, len: usize) {
        if (len + 1) * 2 < self.slots.len() {
            return;
        }
        let mut grown = vec![(0u64, EMPTY); self.slots.len() * 2];
        let mask = grown.len() - 1;
        for &(h, id) in &self.slots {
            if id == EMPTY {
                continue;
            }
            let mut i = (h as usize) & mask;
            loop {
                match grown.get_mut(i) {
                    Some(slot) if slot.1 == EMPTY => {
                        *slot = (h, id);
                        break;
                    }
                    Some(_) => i = (i + 1) & mask,
                    // Unreachable (i ≤ mask by construction); restart
                    // keeps the scan total without an indexing panic.
                    None => i = 0,
                }
            }
        }
        self.slots = grown;
    }

    /// Looks up `hash`: `Ok(id)` when `eq` accepts a stored candidate,
    /// `Err(slot)` with the empty slot where the new entry belongs.
    /// Callers must `reserve_one` first (so an empty slot exists) and
    /// not mutate the table between `find` and `set`.
    fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            match self.slots.get(i) {
                Some(&(h, id)) if id != EMPTY => {
                    if h == hash && eq(id) {
                        return Ok(id);
                    }
                    i = (i + 1) & mask;
                }
                Some(_) => return Err(i),
                None => i = 0,
            }
        }
    }

    fn set(&mut self, slot: usize, hash: u64, id: u32) {
        if let Some(s) = self.slots.get_mut(slot) {
            *s = (hash, id);
        }
    }
}

/// Hash-consing interner for slices of `T`: equal slices get equal
/// ids, ids count up from 0 in first-encounter order, and the payload
/// lives in one flat vector (struct-of-arrays).
pub struct SliceInterner<T> {
    data: Vec<T>,
    spans: Vec<(u32, u32)>,
    table: ProbeTable,
}

impl<T: HashUnit> SliceInterner<T> {
    /// An empty interner.
    pub fn new() -> SliceInterner<T> {
        SliceInterner {
            data: Vec::new(),
            spans: Vec::new(),
            table: ProbeTable::new(),
        }
    }

    /// Interns `slice`, returning its id (existing on a content match,
    /// fresh — the current [`SliceInterner::len`] — otherwise).
    pub fn intern(&mut self, slice: &[T]) -> u32 {
        let hash = hash_slice(slice);
        self.table.reserve_one(self.spans.len());
        let (data, spans) = (&self.data, &self.spans);
        let lookup = |id: u32| {
            spans
                .get(id as usize)
                .and_then(|&(lo, hi)| data.get(lo as usize..hi as usize))
                .is_some_and(|stored| stored == slice)
        };
        match self.table.find(hash, lookup) {
            Ok(id) => id,
            Err(slot) => {
                let lo = self.data.len() as u32;
                self.data.extend_from_slice(slice);
                let id = self.spans.len() as u32;
                self.spans.push((lo, self.data.len() as u32));
                self.table.set(slot, hash, id);
                id
            }
        }
    }

    /// The interned slice for `id` (empty for an out-of-range id).
    pub fn get(&self, id: u32) -> &[T] {
        self.spans
            .get(id as usize)
            .and_then(|&(lo, hi)| self.data.get(lo as usize..hi as usize))
            .unwrap_or(&[])
    }

    /// Number of distinct slices interned.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

impl<T: HashUnit> Default for SliceInterner<T> {
    fn default() -> Self {
        SliceInterner::new()
    }
}

/// The two-level store: atoms (entry slices) and disjunctions (atom-id
/// slices), each hash-consed. Append-only; ids are dense and stable.
pub struct InternTable {
    atoms: SliceInterner<(Sym, Mult)>,
    disjs: SliceInterner<AtomId>,
}

impl InternTable {
    /// An empty table.
    pub fn new() -> InternTable {
        InternTable {
            atoms: SliceInterner::new(),
            disjs: SliceInterner::new(),
        }
    }

    /// Interns one atom's entry slice (callers pass `SAtom::entries`,
    /// already sorted by `SAtom::new`, so content equality is slice
    /// equality).
    pub fn intern_atom(&mut self, entries: &[(Sym, Mult)]) -> AtomId {
        AtomId(self.atoms.intern(entries))
    }

    /// Interns one disjunction as its (ordered) list of atom ids.
    pub fn intern_disj(&mut self, atoms: &[AtomId]) -> DisjId {
        DisjId(self.disjs.intern(atoms))
    }

    /// The entries of an interned atom.
    pub fn atom(&self, a: AtomId) -> &[(Sym, Mult)] {
        self.atoms.get(a.0)
    }

    /// The atom ids of an interned disjunction.
    pub fn disj(&self, d: DisjId) -> &[AtomId] {
        self.disjs.get(d.0)
    }

    /// Number of distinct atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Number of distinct disjunctions.
    pub fn disj_count(&self) -> usize {
        self.disjs.len()
    }
}

impl Default for InternTable {
    fn default() -> Self {
        InternTable::new()
    }
}

/// A conditional tree type's µ assignment lowered onto an
/// [`InternTable`]: `mu[s.ix()]` is the interned disjunction of symbol
/// `s`. Built per kernel call (symbol order), so ids are
/// allocation-order-deterministic and two builds over the same type
/// agree exactly.
pub struct InternedType {
    /// The backing store (shared by every symbol's µ).
    pub table: InternTable,
    /// Per-symbol interned µ, indexed by `Sym::ix`.
    pub mu: Vec<DisjId>,
}

impl InternedType {
    /// Lowers `ty` onto a fresh table. Heavily shared µs (e.g. the
    /// `all_star` disjunction every `τ_a` points at) collapse to one
    /// interned id each, so the table is usually far smaller than the
    /// symbol count times the µ size.
    pub fn build(ty: &ConditionalTreeType) -> InternedType {
        let mut table = InternTable::new();
        let mut mu = Vec::with_capacity(ty.sym_count());
        let mut ids: Vec<AtomId> = Vec::new();
        for s in ty.syms() {
            ids.clear();
            for atom in ty.mu(s).atoms() {
                ids.push(table.intern_atom(atom.entries()));
            }
            mu.push(table.intern_disj(&ids));
        }
        OBS_ATOMS.add(table.atom_count() as u64);
        OBS_DISJS.add(table.disj_count() as u64);
        InternedType { table, mu }
    }

    /// The interned µ of symbol `s` (the empty disjunction id for an
    /// out-of-range symbol, which no well-formed caller produces).
    pub fn mu_of(&self, s: Sym) -> DisjId {
        self.mu.get(s.ix()).copied().unwrap_or(DisjId(EMPTY))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctt::{Disjunction, SAtom, SymTarget};
    use iixml_tree::Label;
    use iixml_values::IntervalSet;

    #[test]
    fn equal_content_same_id_distinct_content_distinct_id() {
        let mut t = InternTable::new();
        let a = t.intern_atom(&[(Sym(0), Mult::One), (Sym(1), Mult::Star)]);
        let b = t.intern_atom(&[(Sym(0), Mult::One), (Sym(1), Mult::Star)]);
        let c = t.intern_atom(&[(Sym(0), Mult::One), (Sym(1), Mult::Plus)]);
        let d = t.intern_atom(&[(Sym(0), Mult::One)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(t.atom_count(), 3);
        assert_eq!(t.atom(a), &[(Sym(0), Mult::One), (Sym(1), Mult::Star)]);
        assert_eq!(t.atom(d), &[(Sym(0), Mult::One)]);
        let d1 = t.intern_disj(&[a, c]);
        let d2 = t.intern_disj(&[a, c]);
        let d3 = t.intern_disj(&[c, a]);
        assert_eq!(d1, d2);
        assert_ne!(d1, d3, "disjunction ids are order-sensitive");
        assert_eq!(t.disj(d1), &[a, c]);
    }

    #[test]
    fn ids_count_up_in_first_encounter_order() {
        let mut t = InternTable::new();
        assert_eq!(t.intern_atom(&[(Sym(5), Mult::Opt)]), AtomId(0));
        assert_eq!(t.intern_atom(&[]), AtomId(1));
        assert_eq!(t.intern_atom(&[(Sym(5), Mult::Opt)]), AtomId(0));
        assert_eq!(t.intern_atom(&[(Sym(6), Mult::Opt)]), AtomId(2));
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        let mut t: SliceInterner<u32> = SliceInterner::new();
        let ids: Vec<u32> = (0..10_000u32).map(|i| t.intern(&[i, i + 1])).collect();
        assert_eq!(t.len(), 10_000);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(id, i as u32, "fresh ids count up");
            assert_eq!(t.get(id), &[i as u32, i as u32 + 1]);
        }
        // Re-interning after growth still finds every entry.
        for i in 0..10_000u32 {
            assert_eq!(t.intern(&[i, i + 1]), i);
        }
    }

    #[test]
    fn out_of_range_ids_are_empty_not_panics() {
        let t = InternTable::new();
        assert!(t.atom(AtomId(7)).is_empty());
        assert!(t.disj(DisjId(u32::MAX)).is_empty());
    }

    #[test]
    fn interned_type_is_deterministic_and_shares_mus() {
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Lab(Label(0)), IntervalSet::all());
        let a = ty.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        let b = ty.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        ty.set_mu(
            r,
            Disjunction(vec![
                SAtom::new(vec![(a, Mult::Star)]),
                SAtom::new(vec![(b, Mult::Star)]),
            ]),
        );
        // a and b share µ content: they must intern to the same DisjId.
        ty.set_mu(a, Disjunction::leaf());
        ty.set_mu(b, Disjunction::leaf());
        ty.add_root(r);
        let i1 = InternedType::build(&ty);
        let i2 = InternedType::build(&ty);
        assert_eq!(i1.mu, i2.mu, "two builds assign identical ids");
        assert_eq!(i1.mu_of(a), i1.mu_of(b));
        assert_ne!(i1.mu_of(r), i1.mu_of(a));
        assert_eq!(i1.table.atom_count(), 3, "two star atoms + one leaf");
    }
}
