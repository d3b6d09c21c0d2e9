//! The single-pass knowledge-text parser
//! (`iixml_core::io::parse_incomplete_xml`) against the parser it
//! replaced, kept as `iixml_oracle::parse_incomplete_xml_reference`.
//!
//! The texts are the knowledge of Refine chains (catalog and library
//! sources, typed and universal starts), the same texts with escaped
//! values and with old-style `name=` attributes, and truncations and
//! mutations of all of them in the manner of `fuzz_parsers.rs`. On every
//! input both parsers accept or both reject; accepted input gives the
//! same tree, which writes back byte-identically, and rejected input
//! fails at the same offset with the same message. Both leave the
//! alphabet with the same labels either way.

use iixml_core::io::{parse_incomplete_xml, write_incomplete_xml};
use iixml_core::type_intersect::restrict_to_type;
use iixml_core::{IncompleteTree, Refiner, Sym};
use iixml_gen::rng::DetRng;
use iixml_gen::testkit::check_with;
use iixml_gen::{
    catalog, catalog_query_camera_pictures, catalog_query_price_below, library,
    library_query_recent, library_query_well_reviewed, random_queries, Catalog,
};
use iixml_oracle::parse_incomplete_xml_reference;
use iixml_query::{parse_ps_query, PsQuery};
use iixml_tree::Alphabet;
use iixml_values::{Cond, IntervalSet, Rat};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn names(alpha: &Alphabet) -> Vec<String> {
    alpha.labels().map(|l| alpha.name(l).to_string()).collect()
}

/// Parses `text` with both parsers, each into its own copy of `alpha`,
/// and checks that they agree. Returns whether the text was accepted.
///
/// A mutant may repeat a symbol inside an atom, which `SAtom::new`
/// refuses with a panic in debug builds; both parsers must then panic
/// alike, and that counts as a rejection.
fn agree(text: &str, alpha: &Alphabet) -> bool {
    let (mut a_new, mut a_ref) = (alpha.clone(), alpha.clone());
    let guarded = |f: &mut dyn FnMut() -> _| catch_unwind(AssertUnwindSafe(f)).ok();
    let shipped = guarded(&mut || parse_incomplete_xml(text, &mut a_new));
    let reference = guarded(&mut || parse_incomplete_xml_reference(text, &mut a_ref));
    assert_eq!(names(&a_new), names(&a_ref), "alphabets differ on {text:?}");
    match (shipped, reference) {
        (Some(Ok(s)), Some(Ok(r))) => {
            assert_eq!(
                format!("{s:?}"),
                format!("{r:?}"),
                "trees differ on {text:?}"
            );
            assert_eq!(
                write_incomplete_xml(&s, &a_new),
                write_incomplete_xml(&r, &a_ref),
                "written text differs on {text:?}"
            );
            true
        }
        (Some(Err(s)), Some(Err(r))) => {
            assert_eq!(s, r, "errors differ on {text:?}");
            false
        }
        (None, None) => false,
        (s, r) => panic!(
            "the parsers disagree on {text:?}: shipped {:?}, reference {:?}",
            s.map(|s| s.map(|_| ())),
            r.map(|r| r.map(|_| ()))
        ),
    }
}

/// A price window of the `refine_heavy` and `restart` workloads.
fn window(alpha: &mut Alphabet, rng: &mut DetRng) -> PsQuery {
    let lo = 10 + 5 * rng.range_i64(0, 98);
    let text = format!("catalog/product{{name, price[>= {lo} & < {}]}}", lo + 5);
    parse_ps_query(&text, alpha).expect("window queries parse")
}

/// The knowledge of a Refine chain on source `c`, from its typed start
/// or from the universal one, after `steps` of `next`'s queries.
fn chain_text(
    c: &mut Catalog,
    typed: bool,
    steps: usize,
    rng: &mut DetRng,
    mut next: impl FnMut(&mut Alphabet, &mut DetRng) -> PsQuery,
) -> String {
    let queries: Vec<PsQuery> = (0..steps).map(|_| next(&mut c.alpha, rng)).collect();
    let labels: Vec<_> = c.alpha.labels().collect();
    let universal = IncompleteTree::universal(&labels);
    let start = if typed {
        restrict_to_type(&universal, &c.ty)
    } else {
        universal
    };
    let mut refiner = Refiner::from_tree(start);
    for q in &queries {
        refiner
            .refine(&c.alpha, q, &q.eval(&c.doc))
            .expect("a source's own answers refine");
    }
    write_incomplete_xml(refiner.current(), &c.alpha)
}

/// Refine-chain knowledge texts of one case, each with its alphabet.
fn corpus(rng: &mut DetRng) -> Vec<(String, Alphabet)> {
    let mut out = Vec::new();
    for typed in [true, false] {
        let mut c = catalog(rng.range_usize(1, 10), rng.next_u64());
        let steps = rng.range_usize(0, 6);
        let text = chain_text(&mut c, typed, steps, rng, |alpha, rng| match rng.below(3) {
            0 => catalog_query_price_below(alpha, rng.range_i64(50, 500)),
            1 => catalog_query_camera_pictures(alpha),
            _ => window(alpha, rng),
        });
        out.push((text, c.alpha));

        let mut l = library(rng.range_usize(1, 6), rng.next_u64());
        let steps = rng.range_usize(0, 4);
        let text = chain_text(&mut l, typed, steps, rng, |alpha, rng| {
            if rng.below(2) == 0 {
                library_query_recent(alpha, rng.range_i64(1900, 2030))
            } else {
                library_query_well_reviewed(alpha, rng.range_i64(0, 10))
            }
        });
        out.push((text, l.alpha));
    }
    // Random queries shaped by the catalog type.
    let mut c = catalog(rng.range_usize(1, 6), rng.next_u64());
    let root = c.alpha.get("catalog").expect("catalog root label");
    let queries = random_queries(&c.alpha, &c.ty, root, 3, 500, rng.next_u64());
    let mut queries = queries.into_iter();
    let text = chain_text(&mut c, rng.below(2) == 0, 3, rng, |_, _| {
        queries.next().expect("three random queries")
    });
    out.push((text, c.alpha));
    out
}

/// `text` with every condition's `&` and `<` escaped, and an old-style
/// history name carrying all three entities on every symbol.
fn escaped(text: &str) -> String {
    text.replace(" & ", " &amp; ")
        .replace("cond=\"< ", "cond=\"&lt; ")
        .replace(
            "<symbol ",
            "<symbol name=\"product&amp;q&lt;1&quot;&amp;any:price\" ",
        )
}

/// Mutants of `text` in the manner of `fuzz_parsers.rs`: each line
/// deleted or doubled, truncations, and single-byte deletions and
/// replacements.
fn mutants(text: &str, rng: &mut DetRng) -> Vec<String> {
    let mut out = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    for skip in 0..lines.len() {
        let without = |i: &usize| *i != skip;
        out.push(
            lines
                .iter()
                .enumerate()
                .filter(|(i, _)| without(i))
                .map(|(_, l)| format!("{l}\n"))
                .collect(),
        );
        let mut doubled = String::new();
        for (i, l) in lines.iter().enumerate() {
            doubled.push_str(l);
            doubled.push('\n');
            if i == skip {
                doubled.push_str(l);
                doubled.push('\n');
            }
        }
        out.push(doubled);
    }
    let bytes = text.as_bytes();
    for _ in 0..16 {
        let cut = rng.range_usize(0, bytes.len() + 1);
        out.push(String::from_utf8_lossy(&bytes[..cut]).into_owned());
    }
    for q in 1..4 {
        out.push(text[..text.len() * q / 4].to_string());
    }
    let noise = [
        b'<', b'>', b'"', b'=', b'/', b' ', b'&', b'!', b'x', b'\n', b';', b'0', b'7',
    ];
    for _ in 0..24 {
        let at = rng.range_usize(0, bytes.len());
        let mut b = bytes.to_vec();
        if rng.below(2) == 0 {
            b.remove(at);
        } else {
            b[at] = *rng.choose(&noise);
        }
        out.push(String::from_utf8_lossy(&b).into_owned());
    }
    out
}

#[test]
fn chain_knowledge_parses_alike() {
    check_with("chain_knowledge_parses_alike", 12, |rng| {
        for (text, alpha) in corpus(rng) {
            assert!(agree(&text, &alpha), "knowledge text must parse");
            // A fresh alphabet interns the labels in text order.
            assert!(agree(&text, &Alphabet::new()));
            let esc = escaped(&text);
            assert!(agree(&esc, &alpha), "escaped text must parse");
            let (mut a1, mut a2) = (alpha.clone(), alpha.clone());
            let plain = parse_incomplete_xml(&text, &mut a1).unwrap();
            let from_esc = parse_incomplete_xml(&esc, &mut a2).unwrap();
            assert_eq!(
                write_incomplete_xml(&from_esc, &a2),
                write_incomplete_xml(&plain, &a1),
                "escapes and history names change nothing"
            );
        }
    });
}

#[test]
fn mutated_knowledge_parses_alike() {
    check_with("mutated_knowledge_parses_alike", 6, |rng| {
        let (mut accepted, mut rejected) = (0, 0);
        for (text, alpha) in corpus(rng) {
            let esc = escaped(&text);
            for base in [&text, &esc] {
                for m in mutants(base, rng) {
                    if agree(&m, &alpha) {
                        accepted += 1;
                    } else {
                        rejected += 1;
                    }
                }
            }
        }
        assert!(
            accepted > 0 && rejected > 0,
            "{accepted} accepted, {rejected} rejected"
        );
    });
}

#[test]
fn arbitrary_text_parses_alike() {
    let alphabet = [
        "<incomplete>",
        "</incomplete>",
        "<data-node",
        "<symbol",
        "</symbol>",
        "<alt>",
        "</alt>",
        "<e",
        "/>",
        ">",
        " nid=\"1\"",
        " label=\"a\"",
        " val=\"0\"",
        " id=\"0\"",
        " node=\"1\"",
        " cond=\"true\"",
        " cond=\"= 0\"",
        " cond=\"= x\"",
        " root=\"true\"",
        " sym=\"0\"",
        " mult=\"*\"",
        " mult=\"!\"",
        "&amp;",
        "=",
        "\"",
        " ",
        "\t",
        "\n",
        "\u{b}",
        "\u{c}",
        "\u{85}",
        "\u{a0}",
        "é",
    ];
    check_with("arbitrary_text_parses_alike", 64, |rng| {
        for _ in 0..32 {
            let n = rng.range_usize(0, 24);
            let text: String = (0..n).map(|_| *rng.choose(&alphabet)).collect();
            agree(&text, &Alphabet::new());
        }
    });
}

/// A random interval set: a few intervals with random open, closed or
/// missing bounds, points among them, over a small range so they
/// overlap, touch and nest.
fn interval_set(rng: &mut DetRng) -> IntervalSet {
    let mut set = IntervalSet::empty();
    for _ in 0..rng.range_usize(0, 6) {
        let a = Rat::new(rng.range_i64(-20, 20), rng.range_i64(1, 3));
        let b = a + Rat::from(rng.range_i64(0, 10));
        let lo = match rng.below(3) {
            0 => Cond::True,
            1 => Cond::ge(a),
            _ => Cond::gt(a),
        };
        let hi = match rng.below(3) {
            0 => Cond::True,
            1 => Cond::le(b),
            _ => Cond::lt(b),
        };
        let piece = if rng.below(4) == 0 {
            Cond::eq(a)
        } else {
            lo.and(hi)
        };
        set = set.union(&piece.to_intervals());
    }
    set
}

/// Conditions as the writer writes interval sets, and near misses of
/// that form, parse alike on a symbol; the written ones come back as
/// the same set.
#[test]
fn written_conditions_parse_alike() {
    let alpha = Alphabet::from_names(["a"]);
    let near_misses: [(&str, &str); 8] = [
        (" | ", "|"),
        (" & ", " &amp; "),
        ("(", "( "),
        (")", ""),
        ("<", "&lt;"),
        ("= ", "=  "),
        (" ", ""),
        ("1", "1/0"),
    ];
    check_with("written_conditions_parse_alike", 256, |rng| {
        let set = interval_set(rng);
        let cond = Cond::from_intervals(&set).to_string();
        let text = |cond: &str| {
            format!(
                "<incomplete>\n  <symbol id=\"0\" label=\"a\" cond=\"{cond}\" root=\"true\">\n    <alt></alt>\n  </symbol>\n</incomplete>\n"
            )
        };
        assert!(agree(&text(&cond), &alpha), "{cond} must parse");
        let mut a = alpha.clone();
        let it = parse_incomplete_xml(&text(&cond), &mut a).unwrap();
        assert_eq!(it.ty().info(Sym(0)).cond, set, "{cond}");
        let (from, to) = *rng.choose(&near_misses);
        agree(&text(&cond.replacen(from, to, 1)), &alpha);
    });
}
