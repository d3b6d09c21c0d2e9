//! Round-trip property tests for the XML-ish serialization (the paper
//! notes incomplete information "can be itself naturally represented and
//! browsed as an XML document") and for the condition text syntax.

use iixml_core::io::{parse_incomplete_xml, write_incomplete_xml};
use iixml_core::type_intersect::restrict_to_type;
use iixml_core::{IncompleteTree, Refiner};
use iixml_gen::testkit::check_with;
use iixml_gen::{catalog, catalog_query_price_below, sample_tree};
use iixml_query::parse_ps_query;
use iixml_tree::xmlio::{parse_tree, write_tree};
use iixml_tree::{Alphabet, DataTree, Label, Nid};
use iixml_values::parse::parse_cond;
use iixml_values::{Cond, Rat};

#[test]
fn tree_roundtrip() {
    check_with("tree_roundtrip", 24, |rng| {
        let seed = rng.below(10_000);
        let n = rng.range_usize(1, 12);
        let c = catalog(n, seed);
        let text = write_tree(&c.doc, &c.alpha);
        // A fresh alphabet interns labels in a different order, so
        // compare by re-serializing: the text must be reproduced.
        let mut fresh = Alphabet::new();
        let back = parse_tree(&text, &mut fresh).unwrap();
        assert_eq!(write_tree(&back, &fresh), text);
        // With the original alphabet the round trip is exact.
        let mut alpha = c.alpha.clone();
        let back2 = parse_tree(&text, &mut alpha).unwrap();
        assert!(back2.same_tree(&c.doc));
    });
}

#[test]
fn sampled_tree_roundtrip() {
    check_with("sampled_tree_roundtrip", 24, |rng| {
        let seed = rng.below(10_000);
        let fanout = rng.range_usize(1, 4);
        let c = catalog(1, 0);
        let root = c.alpha.get("catalog").unwrap();
        let t = sample_tree(&c.ty, root, fanout, 100, 4, seed);
        let text = write_tree(&t, &c.alpha);
        let mut alpha = c.alpha.clone();
        let back = parse_tree(&text, &mut alpha).unwrap();
        assert!(back.same_tree(&t));
    });
}

/// Condition display/parse round trip preserves semantics.
#[test]
fn condition_roundtrip() {
    check_with("condition_roundtrip", 24, |rng| {
        let len = rng.range_usize(1, 5);
        let mut cond = Cond::True;
        for _ in 0..len {
            let v = rng.range_i64(-50, 50);
            let atom = match rng.below(6) {
                0 => Cond::eq(Rat::from(v)),
                1 => Cond::ne(Rat::from(v)),
                2 => Cond::lt(Rat::from(v)),
                3 => Cond::le(Rat::from(v)),
                4 => Cond::gt(Rat::from(v)),
                _ => Cond::ge(Rat::from(v)),
            };
            cond = if v % 2 == 0 {
                cond.and(atom)
            } else {
                cond.or(atom)
            };
        }
        let text = cond.to_string();
        let back = parse_cond(&text).unwrap();
        assert!(back.equivalent(&cond), "{text}");
        // The interval normal form also round-trips through Cond.
        let set = cond.to_intervals();
        let rebuilt = Cond::from_intervals(&set);
        assert_eq!(rebuilt.to_intervals(), set);
    });
}

/// Knowledge text as older versions wrote it: every symbol carried a
/// `name=` recording the queries that built it (`&` joins product
/// members, `@q<m>`/`any:`/`node:`/`fail:`/`viol:` tag their origin).
/// This is the two-step chain of `old_form_knowledge_still_loads`.
const OLD_FORM: &str = r#"<incomplete>
  <data-node nid="0" label="root" val="0"/>
  <data-node nid="1" label="a" val="5"/>
  <symbol id="0" name="root&amp;any:root&amp;any:root" label="root" cond="true">
    <alt><e sym="0" mult="*"/><e sym="2" mult="*"/><e sym="5" mult="*"/></alt>
  </symbol>
  <symbol id="1" name="root&amp;node:n0&amp;fail:q0" node="0" cond="= 0" root="true">
    <alt><e sym="0" mult="*"/><e sym="3" mult="*"/><e sym="4" mult="1"/></alt>
  </symbol>
  <symbol id="2" name="a&amp;any:a&amp;any:a" label="a" cond="true">
    <alt><e sym="0" mult="*"/><e sym="2" mult="*"/><e sym="5" mult="*"/></alt>
  </symbol>
  <symbol id="3" name="a&amp;viol:q1&amp;any:a" label="a" cond=">= 10">
    <alt><e sym="0" mult="*"/><e sym="2" mult="*"/><e sym="5" mult="*"/></alt>
  </symbol>
  <symbol id="4" name="a&amp;node:n1&amp;any:a" node="1" cond="= 5">
    <alt><e sym="0" mult="*"/><e sym="2" mult="*"/><e sym="5" mult="*"/></alt>
  </symbol>
  <symbol id="5" name="b&amp;any:b&amp;any:b" label="b" cond="true">
    <alt><e sym="0" mult="*"/><e sym="2" mult="*"/><e sym="5" mult="*"/></alt>
  </symbol>
</incomplete>
"#;

/// `text` with an old-style history name on every symbol.
fn add_history_names(text: &str) -> String {
    text.replace(
        "<symbol ",
        "<symbol name=\"product&amp;product@q1&amp;any:price@bar\" ",
    )
}

/// Parses `text` with a fresh alphabet and writes it back.
fn reparse(text: &str) -> (IncompleteTree, String) {
    let mut alpha = Alphabet::new();
    let it = parse_incomplete_xml(text, &mut alpha).unwrap();
    let back = write_incomplete_xml(&it, &alpha);
    (it, back)
}

/// Knowledge written before symbols lost their names still loads: the
/// parser ignores `name=`, so the old text parses to the same tree the
/// same chain builds today, and writes the same bytes.
#[test]
fn old_form_knowledge_still_loads() {
    let mut alpha = Alphabet::from_names(["root", "a", "b"]);
    let mut doc = DataTree::new(Nid(0), Label(0), Rat::ZERO);
    doc.add_child(doc.root(), Nid(1), Label(1), Rat::from(5))
        .unwrap();
    let q1 = parse_ps_query("root/a[< 10]", &mut alpha).unwrap();
    let q2 = parse_ps_query("root/b", &mut alpha).unwrap();
    let mut refiner = Refiner::new(&alpha);
    refiner.refine(&alpha, &q1, &q1.eval(&doc)).unwrap();
    refiner.refine(&alpha, &q2, &q2.eval(&doc)).unwrap();
    let today = write_incomplete_xml(refiner.current(), &alpha);
    assert!(!today.contains("name="));

    let mut old_alpha = alpha.clone();
    let old = parse_incomplete_xml(OLD_FORM, &mut old_alpha).unwrap();
    assert_eq!(format!("{old:?}"), format!("{:?}", refiner.current()));
    assert_eq!(write_incomplete_xml(&old, &old_alpha), today);
}

/// The same on typed catalog knowledge: text carrying history names and
/// the name-free text parse to the same tree and write the same bytes.
#[test]
fn history_names_are_ignored_on_load() {
    check_with("history_names_are_ignored_on_load", 12, |rng| {
        let mut c = catalog(rng.range_usize(1, 8), rng.next_u64());
        let queries: Vec<_> = (0..rng.range_usize(1, 4))
            .map(|_| catalog_query_price_below(&mut c.alpha, rng.range_i64(50, 500)))
            .collect();
        let labels: Vec<_> = c.alpha.labels().collect();
        let start = restrict_to_type(&IncompleteTree::universal(&labels), &c.ty);
        let mut refiner = Refiner::from_tree(start);
        for q in &queries {
            refiner.refine(&c.alpha, q, &q.eval(&c.doc)).unwrap();
        }
        let plain = write_incomplete_xml(refiner.current(), &c.alpha);
        let named = add_history_names(&plain);
        assert_ne!(named, plain);
        let (from_plain, plain_back) = reparse(&plain);
        let (from_named, named_back) = reparse(&named);
        assert_eq!(format!("{from_named:?}"), format!("{from_plain:?}"));
        assert_eq!(named_back, plain_back);
        assert_eq!(plain_back, plain);
    });
}
