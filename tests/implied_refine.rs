//! Refine leaves the knowledge as it is when the knowledge already
//! implies the query-answer pair.
//!
//! `Refiner::refine` returns `Ok(true)` and keeps `T` when every
//! represented world answers `q` with `A`: then `rep(T) ⊆ q⁻¹(A)`, and
//! the construction `minimize(trim(T ∩ T_{q,A}))` would leave `rep` as
//! it is (Theorem 3.4). These tests check that:
//!
//! * every skip is sound: on small typed catalogs each enumerated world
//!   of `T` answers `q` with `A`, and `T` and the literal construction
//!   represent the same worlds (`iixml-oracle::enumerate_rep`, checked
//!   by membership both ways);
//! * an answer with one node dropped or one value changed (or one
//!   provenance entry dropped, or an implied empty answer made
//!   nonempty) is never skipped, and `refine` handles its contradiction
//!   as the literal construction does: the same error with the
//!   knowledge unchanged, or the same (empty) knowledge;
//! * journaled sessions that revisit windows after the snapshots at
//!   records 32, 64 and 96 leave their knowledge bytes unchanged on
//!   every revisit and recover byte-identically at par widths 1 and 4,
//!   with the containment cache on and off.

use iixml_core::io::write_incomplete_xml;
use iixml_core::refine::{intersect, query_answer_tree};
use iixml_core::type_intersect::restrict_to_type;
use iixml_core::{IncompleteTree, ItreeError, Refiner};
use iixml_gen::rng::DetRng;
use iixml_gen::testkit::{base_seed, check_with};
use iixml_gen::{catalog, Catalog};
use iixml_oracle::{enumerate_rep, Bounds};
use iixml_query::{parse_ps_query, Answer, MatchKind, PsQuery};
use iixml_store::RecoveryStatus;
use iixml_tree::{Alphabet, DataTree, NodeRef};
use iixml_values::Rat;
use iixml_webhouse::{Session, Source, Webhouse};
use std::path::{Path, PathBuf};

/// The literal construction `minimize(trim(T ∩ T_{q,A}))`, which
/// `Refiner::refine` ran on every pair before it learned to skip.
fn construct(
    alpha: &Alphabet,
    t: &IncompleteTree,
    q: &PsQuery,
    ans: &Answer,
) -> Result<IncompleteTree, ItreeError> {
    let tqa = query_answer_tree(q, ans, alpha)?;
    let product = intersect(t, &tqa)?;
    let trimmed = product.trimmed();
    let minimized = trimmed.minimized();
    Ok(minimized.into_owned())
}

/// A price window `[lo, lo + 5)`, as a refine-heavy session fetches it.
fn window_text(k: i64) -> String {
    let lo = 10 + 5 * k;
    format!("catalog/product{{name, price[>= {lo} & < {}]}}", lo + 5)
}

/// The query pool of one chain: price windows and price bounds, with
/// and without a `cat[= 1]/subcat` branch, and random type-shaped
/// queries.
fn query_pool(c: &Catalog, alpha: &mut Alphabet, rng: &mut DetRng) -> Vec<PsQuery> {
    let mut texts = Vec::new();
    for _ in 0..3 {
        texts.push(window_text(rng.range_i64(0, 98)));
        let b = rng.range_i64(10, 500);
        texts.push(format!("catalog/product{{name, price[< {b}]}}"));
        let b = rng.range_i64(10, 500);
        texts.push(format!(
            "catalog/product{{name, price[< {b}], cat[= 1]/subcat}}"
        ));
    }
    let mut pool: Vec<PsQuery> = texts
        .iter()
        .map(|t| parse_ps_query(t, alpha).unwrap())
        .collect();
    let root = alpha.get("catalog").unwrap();
    pool.extend(iixml_gen::random_queries(
        alpha,
        &c.ty,
        root,
        3,
        500,
        rng.next_u64(),
    ));
    pool
}

/// A typed catalog chain on `products` products: `len` pairs drawn from
/// the pool, so later draws often repeat an earlier query.
fn chain(
    products: usize,
    len: usize,
    rng: &mut DetRng,
) -> (Alphabet, IncompleteTree, Vec<(PsQuery, Answer)>) {
    let c = catalog(products, rng.next_u64());
    let mut alpha = c.alpha.clone();
    let pool = query_pool(&c, &mut alpha, rng);
    let steps = (0..len)
        .map(|_| {
            let q = rng.choose(&pool).clone();
            let ans = q.eval(&c.doc);
            (q, ans)
        })
        .collect();
    let labels: Vec<_> = alpha.labels().collect();
    let start = restrict_to_type(&IncompleteTree::universal(&labels), &c.ty);
    (alpha, start, steps)
}

fn bounds() -> Bounds {
    Bounds {
        star_cap: 1,
        max_depth: 4,
        max_worlds: 400,
        values_per_interval: 1,
    }
}

/// Do two answers coincide as unordered trees with ids?
fn same_answer(a: &Option<DataTree>, b: &Option<DataTree>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => x.canonical_key(x.root()) == y.canonical_key(y.root()),
        _ => false,
    }
}

/// What the skips covered.
#[derive(Default, Debug)]
struct Skips {
    empty: usize,
    nonempty: usize,
    /// Skips where the literal construction would have changed the bytes.
    restructured: usize,
}

/// Every skip on small typed catalog chains is sound: `rep(T)` lies in
/// `q⁻¹(A)`, and `T` and the literal construction have the same `rep`.
#[test]
fn every_skip_keeps_rep() {
    let mut s = Skips::default();
    check_with("implied_refine_sound", 12, |rng| {
        let (alpha, start, steps) = chain(3, 14, rng);
        let mut refiner = Refiner::from_tree(start);
        for (i, (q, ans)) in steps.iter().enumerate() {
            let before = refiner.current().clone();
            let bytes = write_incomplete_xml(&before, &alpha);
            if !refiner.refine(&alpha, q, ans).unwrap() {
                continue;
            }
            assert_eq!(
                write_incomplete_xml(refiner.current(), &alpha),
                bytes,
                "step {i}: a skip changed the knowledge"
            );
            let literal = construct(&alpha, &before, q, ans).unwrap();
            if write_incomplete_xml(&literal, &alpha) != bytes {
                s.restructured += 1;
            }
            let ours = enumerate_rep(&before, bounds());
            let theirs = enumerate_rep(&literal, bounds());
            assert!(!ours.worlds.is_empty(), "step {i}: no world to check");
            for w in &ours.worlds {
                assert!(
                    same_answer(&q.eval(w).tree, &ans.tree),
                    "step {i}: a represented world answers differently"
                );
                assert!(
                    literal.contains(w),
                    "step {i}: the construction drops a world of T"
                );
            }
            for w in &theirs.worlds {
                assert!(
                    before.contains(w),
                    "step {i}: the construction adds a world T lacks"
                );
            }
            match ans.tree {
                None => s.empty += 1,
                Some(_) => s.nonempty += 1,
            }
        }
    });
    assert!(s.empty > 0, "no empty answer was skipped: {s:?}");
    assert!(s.nonempty > 0, "no nonempty answer was skipped: {s:?}");
    assert!(
        s.restructured > 0,
        "no skip avoided a restructuring construction: {s:?}"
    );
}

/// `a` without the leaf `drop` (and its provenance).
fn without(a: &Answer, drop: NodeRef) -> Answer {
    let t = a.tree.as_ref().unwrap();
    let mut out = DataTree::new(t.nid(t.root()), t.label(t.root()), t.value(t.root()));
    for n in t.preorder().into_iter().skip(1) {
        if n == drop {
            continue;
        }
        let parent = out.by_nid(t.nid(t.parent(n).unwrap())).unwrap();
        out.add_child(parent, t.nid(n), t.label(n), t.value(n))
            .unwrap();
    }
    let mut provenance = a.provenance.clone();
    provenance.remove(&t.nid(drop));
    Answer {
        tree: Some(out),
        provenance,
    }
}

/// `a` with one more than `at`'s value at `at`.
fn revalued(a: &Answer, at: NodeRef) -> Answer {
    let mut bad = a.clone();
    let t = bad.tree.as_mut().unwrap();
    let v = t.value(at);
    t.set_value(at, v + Rat::from(1));
    bad
}

/// Refines `bad` into `t` and checks it is handled as the literal
/// construction handles it, with an empty `rep` when `bad` is an answer
/// `q` could give but `t` rules out; returns whether that was an error.
fn check_near_miss(
    alpha: &Alphabet,
    t: &IncompleteTree,
    q: &PsQuery,
    bad: &Answer,
    what: &str,
    contradiction: bool,
) -> bool {
    let bytes = write_incomplete_xml(t, alpha);
    let mut refiner = Refiner::from_tree(t.clone());
    let got = refiner.refine(alpha, q, bad);
    match (got, construct(alpha, t, q, bad)) {
        (Ok(skipped), Ok(literal)) => {
            assert!(!skipped, "{what}: skipped");
            assert_eq!(
                write_incomplete_xml(refiner.current(), alpha),
                write_incomplete_xml(&literal, alpha),
                "{what}: refine and the construction disagree"
            );
            assert!(
                !contradiction || refiner.current().is_empty(),
                "{what}: a contradiction left worlds in rep"
            );
            false
        }
        (Err(e), Err(literal)) => {
            assert_eq!(
                e, literal,
                "{what}: refine and the construction fail differently"
            );
            assert_eq!(
                write_incomplete_xml(refiner.current(), alpha),
                bytes,
                "{what}: a failed refine changed the knowledge"
            );
            true
        }
        (got, literal) => panic!("{what}: refine gave {got:?}, the construction {literal:?}"),
    }
}

/// `a` without the provenance of `at`.
fn unprovenanced(a: &Answer, at: NodeRef) -> Answer {
    let mut bad = a.clone();
    let nid = a.tree.as_ref().unwrap().nid(at);
    bad.provenance.remove(&nid);
    bad
}

/// The nonempty answer holding just the root of `t`'s known data tree,
/// matched by `q`'s root.
fn known_root(t: &IncompleteTree, q: &PsQuery) -> Option<Answer> {
    let d = t.data_tree()?;
    let r = d.root();
    Some(Answer {
        tree: Some(DataTree::new(d.nid(r), d.label(r), d.value(r))),
        provenance: [(d.nid(r), MatchKind::Matched(q.root()))].into(),
    })
}

/// Near misses of the implied answers `refine` skipped.
#[derive(Default, Debug)]
struct NearMisses {
    /// One leaf dropped.
    dropped: usize,
    /// One value changed.
    revalued: usize,
    /// One provenance entry dropped.
    unprovenanced: usize,
    /// An implied empty answer replaced by the known root alone.
    filled: usize,
    /// Near misses the construction refused with an error.
    errors: usize,
}

/// Near misses of implied answers (one node dropped, one value changed,
/// one provenance entry dropped, or an empty answer made nonempty) are
/// contradictions, never skips.
#[test]
fn near_misses_are_never_skipped() {
    let mut m = NearMisses::default();
    check_with("implied_refine_near_misses", 12, |rng| {
        let (alpha, start, steps) = chain(4, 12, rng);
        let mut refiner = Refiner::from_tree(start);
        for (q, ans) in &steps {
            let before = refiner.current().clone();
            if !refiner.refine(&alpha, q, ans).unwrap() {
                continue;
            }
            let mut check = |bad: &Answer, what: &str, contradiction: bool| {
                let error = check_near_miss(&alpha, &before, q, bad, what, contradiction);
                m.errors += usize::from(error);
            };
            let Some(tree) = &ans.tree else {
                if let Some(bad) = known_root(&before, q) {
                    check(&bad, "the known root for an empty answer", false);
                    m.filled += 1;
                }
                continue;
            };
            let nodes = tree.preorder();
            let leaves: Vec<NodeRef> = nodes
                .iter()
                .copied()
                .filter(|&n| n != tree.root() && tree.children(n).is_empty())
                .collect();
            if !leaves.is_empty() {
                check(&without(ans, *rng.choose(&leaves)), "a leaf dropped", true);
                m.dropped += 1;
            }
            check(&revalued(ans, *rng.choose(&nodes)), "a value changed", true);
            let bad = unprovenanced(ans, *rng.choose(&nodes));
            check(&bad, "a provenance dropped", false);
            m.revalued += 1;
            m.unprovenanced += 1;
        }
    });
    assert!(
        m.dropped > 0 && m.revalued > 0 && m.unprovenanced > 0 && m.filled > 0,
        "a kind of near miss never ran: {m:?}"
    );
    let total = m.dropped + m.revalued + m.unprovenanced + m.filled;
    assert!(m.errors > 0, "no near miss failed the construction: {m:?}");
    assert!(
        m.errors < total,
        "no near miss was refined to an empty rep: {m:?}"
    );
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iixml-implied-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// A journaled session's Fetch texts: new windows and price bounds with
/// a `cat[= 1]/subcat` branch, with a run of revisits of earlier ones
/// right after each of the snapshots at records 32, 64 and 96 (the
/// Open record is record 1, each Fetch one more).
fn session_script(rng: &mut DetRng) -> Vec<(String, bool)> {
    let mut windows: Vec<i64> = (0..98).collect();
    for i in (1..windows.len()).rev() {
        windows.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut windows = windows.into_iter();
    let mut fresh = |rng: &mut DetRng| {
        if rng.below(4) == 0 {
            let b = rng.range_i64(10, 500);
            format!("catalog/product{{name, price[< {b}], cat[= 1]/subcat}}")
        } else {
            window_text(windows.next().unwrap())
        }
    };
    let mut script: Vec<(String, bool)> = Vec::new();
    for (news, revisits) in [(31, 6), (26, 6), (26, 8)] {
        for _ in 0..news {
            script.push((fresh(rng), false));
        }
        let seen: Vec<String> = script.iter().map(|(t, _)| t.clone()).collect();
        for _ in 0..revisits {
            script.push((rng.choose(&seen).clone(), true));
        }
    }
    script
}

/// Runs the script in a journaled session, asserting that no revisit
/// changes the knowledge bytes. Leaves a crash image after every
/// revisit; returns the images with the bytes at each, and the
/// knowledge bytes after every Fetch.
fn run_session(
    c: &Catalog,
    script: &[(String, bool)],
    cache: bool,
    dir: &Path,
) -> (Vec<(PathBuf, String)>, Vec<String>) {
    let mut alpha = c.alpha.clone();
    let queries: Vec<PsQuery> = script
        .iter()
        .map(|(t, _)| parse_ps_query(t, &mut alpha).unwrap())
        .collect();
    let source = Source::new(c.doc.clone(), Some(c.ty.clone()));
    let mut session = Session::open_journaled(alpha.clone(), source, dir).unwrap();
    session.set_contain_cache(cache);
    let mut images = Vec::new();
    let mut trajectory = Vec::new();
    for (i, (q, (_, revisit))) in queries.iter().zip(script).enumerate() {
        let before = write_incomplete_xml(session.knowledge(), &alpha);
        session.fetch(q).unwrap();
        let after = write_incomplete_xml(session.knowledge(), &alpha);
        if *revisit {
            assert_eq!(after, before, "fetch {i}: a revisit changed the knowledge");
            let image = dir.with_file_name(format!(
                "{}-at{}",
                dir.file_name().unwrap().to_string_lossy(),
                i + 2
            ));
            copy_dir(dir, &image);
            images.push((image, after.clone()));
        }
        trajectory.push(after);
    }
    (images, trajectory)
}

/// Revisits after each snapshot skip the construction, journal their
/// Fetch, and recover byte-identically at widths 1 and 4, cache on or
/// off.
#[test]
fn journaled_revisits_recover_byte_identical() {
    let mut rng = DetRng::new(base_seed() ^ 0x1E71);
    let c = catalog(16, rng.next_u64());
    let script = session_script(&mut rng);
    let mut trajectories = Vec::new();
    for cache in [false, true] {
        let dir = scratch(&format!("cache{}", u8::from(cache)));
        let (images, trajectory) = run_session(&c, &script, cache, &dir);
        assert_eq!(images.len(), 20);
        for width in [1usize, 4] {
            iixml_par::set_threads(Some(width));
            let mut house: Webhouse<Source> = Webhouse::new();
            let journals = images
                .iter()
                .enumerate()
                .map(|(k, (image, _))| {
                    let source = Source::new(c.doc.clone(), Some(c.ty.clone()));
                    (format!("image-{k:02}"), image.clone(), source)
                })
                .collect();
            let reports = house.recover_sessions(journals).unwrap();
            iixml_par::set_threads(None);
            for ((name, report), (_, bytes)) in reports.iter().zip(&images) {
                let ctx = format!("cache {cache}, width {width}, {name}");
                assert_eq!(report.status, RecoveryStatus::Clean, "{ctx}");
                assert!(report.from_snapshot.is_some(), "{ctx}: no snapshot");
                let session = house.session(name).unwrap();
                assert_eq!(
                    &write_incomplete_xml(session.knowledge(), session.alphabet()),
                    bytes,
                    "{ctx}: recovered knowledge differs"
                );
            }
        }
        for (image, _) in &images {
            let _ = std::fs::remove_dir_all(image);
        }
        let _ = std::fs::remove_dir_all(&dir);
        trajectories.push(trajectory);
    }
    assert_eq!(
        trajectories[0], trajectories[1],
        "the cache changed the knowledge"
    );
}
