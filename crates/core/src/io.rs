//! XML serialization of incomplete trees.
//!
//! The paper emphasizes that incomplete trees "exhibit in a user-friendly
//! way the partial information available as well as the missing
//! information, and can be itself naturally represented and browsed as an
//! XML document". This module provides that document form:
//!
//! ```xml
//! <incomplete>
//!   <data-node nid="0" label="root" val="0"/>
//!   <data-node nid="1" label="a" val="0"/>
//!   <symbol id="0" node="0" cond="= 0" root="true">
//!     <alt><e sym="1" mult="1"/><e sym="2" mult="*"/></alt>
//!   </symbol>
//!   <symbol id="2" label="a" cond="!= 0">
//!     <alt><e sym="3" mult="*"/></alt>
//!   </symbol>
//! </incomplete>
//! ```
//!
//! `write_incomplete_xml` / `parse_incomplete_xml` round-trip exactly
//! (same symbols, atoms, conditions, data nodes).
//!
//! A symbol is identified by its `id` alone: the text records what the
//! knowledge is, not the queries that built it. Text written by older
//! versions also carries a `name=` attribute; the parser ignores it.

use crate::ctt::{ConditionalTreeType, Disjunction, SAtom, Sym, SymTarget, SymbolInfo};
use crate::itree::{IncompleteTree, NodeInfo};
use iixml_tree::{Alphabet, Label, Mult, Nid};
use iixml_values::parse::{parse_cond, ParseCondError};
use iixml_values::{CmpOp, Cond, Cut, Interval, IntervalSet, Rat};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Serializes an incomplete tree as an XML document.
pub fn write_incomplete_xml(it: &IncompleteTree, alpha: &Alphabet) -> String {
    let ty = it.ty();
    let mut out = String::from("<incomplete>\n");
    for (&nid, info) in it.nodes() {
        out.push_str(&format!(
            "  <data-node nid=\"{}\" label=\"{}\" val=\"{}\"/>\n",
            nid.0,
            alpha.name(info.label),
            info.value
        ));
    }
    for s in ty.syms() {
        let info = ty.info(s);
        let target = match info.target {
            SymTarget::Node(n) => format!("node=\"{}\"", n.0),
            SymTarget::Lab(l) => format!("label=\"{}\"", alpha.name(l)),
        };
        let cond = Cond::from_intervals(&info.cond);
        let root_attr = if ty.roots().contains(&s) {
            " root=\"true\""
        } else {
            ""
        };
        out.push_str(&format!(
            "  <symbol id=\"{}\" {target} cond=\"{cond}\"{root_attr}>\n",
            s.0
        ));
        for atom in ty.mu(s).atoms() {
            out.push_str("    <alt>");
            for &(c, m) in atom.entries() {
                out.push_str(&format!("<e sym=\"{}\" mult=\"{}\"/>", c.0, mult_text(m)));
            }
            out.push_str("</alt>\n");
        }
        out.push_str("  </symbol>\n");
    }
    out.push_str("</incomplete>\n");
    out
}

fn mult_text(m: Mult) -> &'static str {
    match m {
        Mult::One => "1",
        Mult::Opt => "?",
        Mult::Plus => "+",
        Mult::Star => "*",
    }
}

fn xml_unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&quot;", "\"")
        .replace("&amp;", "&")
}

/// `raw` with its entities replaced, borrowed when it holds none (a
/// condition's `&` is written bare).
fn unescaped(raw: &str) -> Cow<'_, str> {
    if raw.contains('&') && ["&lt;", "&quot;", "&amp;"].iter().any(|e| raw.contains(e)) {
        Cow::Owned(xml_unescape(raw))
    } else {
        Cow::Borrowed(raw)
    }
}

/// Error from parsing the incomplete-tree XML form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoError {
    /// Byte offset of the error.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "incomplete-tree xml error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for IoError {}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, m: impl Into<String>) -> IoError {
        IoError {
            at: self.pos,
            message: m.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// Skips whitespace as `str::trim_start` does, a byte at a time
    /// until the first non-ASCII byte.
    fn skip_ws(&mut self) {
        while let Some(&b) = self.input.as_bytes().get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c => self.pos += 1,
                b if b.is_ascii() => return,
                _ => {
                    let t = self.rest().trim_start();
                    self.pos = self.input.len() - t.len();
                    return;
                }
            }
        }
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &str) -> Result<(), IoError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{tok}'")))
        }
    }

    /// Parses `key="value"` pairs until `/>` or `>` into `attrs`, and
    /// returns whether the element was self-closing. A key is whatever
    /// precedes the next `=`, trimmed; keys the text does not use are
    /// skipped.
    fn parse_attrs(&mut self, attrs: &mut Attrs<'a>) -> Result<bool, IoError> {
        *attrs = Attrs::default();
        loop {
            self.skip_ws();
            let rest = self.rest();
            if rest.starts_with("/>") {
                self.pos += 2;
                return Ok(true);
            }
            if rest.starts_with('>') {
                self.pos += 1;
                return Ok(false);
            }
            let eq = find_byte(rest, b'=').ok_or_else(|| self.err("expected attribute"))?;
            let key = rest[..eq].trim();
            self.pos += eq + 1;
            self.expect("\"")?;
            let rest = self.rest();
            let close =
                find_byte(rest, b'"').ok_or_else(|| self.err("unterminated attribute value"))?;
            self.pos += close + 1;
            if let Some(slot) = attrs.slot(key) {
                slot.get_or_insert(&rest[..close]);
            }
        }
    }
}

/// The first index of the ASCII byte `b` in `s`: a plain scan, faster
/// than a vectorized search over the few bytes an attribute spans.
fn find_byte(s: &str, b: u8) -> Option<usize> {
    s.bytes().position(|c| c == b)
}

/// One element's attributes, by key, as written (still escaped); the
/// first occurrence of a key wins.
#[derive(Clone, Copy, Default)]
struct Attrs<'a> {
    nid: Option<&'a str>,
    label: Option<&'a str>,
    val: Option<&'a str>,
    id: Option<&'a str>,
    node: Option<&'a str>,
    cond: Option<&'a str>,
    root: Option<&'a str>,
    sym: Option<&'a str>,
    mult: Option<&'a str>,
}

impl<'a> Attrs<'a> {
    fn slot(&mut self, key: &str) -> Option<&mut Option<&'a str>> {
        Some(match key {
            "nid" => &mut self.nid,
            "label" => &mut self.label,
            "val" => &mut self.val,
            "id" => &mut self.id,
            "node" => &mut self.node,
            "cond" => &mut self.cond,
            "root" => &mut self.root,
            "sym" => &mut self.sym,
            "mult" => &mut self.mult,
            _ => return None,
        })
    }
}

/// A condition's interval set. `true`, and any text in the form the
/// writer gives an interval set ([`written_intervals`]), skip the
/// condition parser; any other text goes through it.
fn cond_intervals(text: &str) -> Result<IntervalSet, ParseCondError> {
    if text == "true" {
        return Ok(Cond::True.to_intervals());
    }
    match written_intervals(text) {
        Some(set) => Ok(set),
        None => parse_cond(text).map(|c| c.to_intervals()),
    }
}

/// The interval set of a condition written as `Cond::from_intervals`
/// writes one: a comparison `OP v`, or a parenthesized list of
/// intervals joined by ` | `, where an interval is `= v`, a half-line
/// (`< v`, `<= v`, `> v`, `>= v`), or `(>= a & < b)` with either bound
/// open or closed. `None` for any other text, or a literal that does not
/// parse; the condition parser then decides.
fn written_intervals(text: &str) -> Option<IntervalSet> {
    match text.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
        Some(inner) if inner.contains(" | ") => {
            let mut ivs = Vec::new();
            for d in inner.split(" | ") {
                ivs.extend(interval(d)?);
            }
            Some(IntervalSet::from_intervals(ivs))
        }
        Some(_) => interval(text).map(|iv| IntervalSet::from_intervals(iv.into_iter().collect())),
        None => comparison(text).map(|(op, v)| op.intervals(v)),
    }
}

/// One interval of a written list: `Some(None)` for an empty
/// `(>= a & < b)`.
fn interval(text: &str) -> Option<Option<Interval>> {
    if let Some(pair) = text.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
        let (lo, hi) = pair.split_once(" & ")?;
        let lo = match comparison(lo)? {
            (CmpOp::Ge, v) => Cut::Below(v),
            (CmpOp::Gt, v) => Cut::Above(v),
            _ => return None,
        };
        let hi = match comparison(hi)? {
            (CmpOp::Lt, v) => Cut::Below(v),
            (CmpOp::Le, v) => Cut::Above(v),
            _ => return None,
        };
        return Some(Interval::new(lo, hi));
    }
    Some(match comparison(text)? {
        (CmpOp::Eq, v) => Some(Interval::point(v)),
        (CmpOp::Lt, v) => Interval::new(Cut::NegInf, Cut::Below(v)),
        (CmpOp::Le, v) => Interval::new(Cut::NegInf, Cut::Above(v)),
        (CmpOp::Gt, v) => Interval::new(Cut::Above(v), Cut::PosInf),
        (CmpOp::Ge, v) => Interval::new(Cut::Below(v), Cut::PosInf),
        (CmpOp::Ne, _) => return None,
    })
}

/// `OP v` with one space and a literal of digits, `-`, `/` and `.`.
fn comparison(text: &str) -> Option<(CmpOp, Rat)> {
    let (op, v) = text.split_once(' ')?;
    let op = match op {
        "=" => CmpOp::Eq,
        "!=" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        _ => return None,
    };
    let literal = !v.is_empty()
        && v.bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'-' | b'/' | b'.'));
    Some((op, literal.then(|| v.parse().ok())??))
}

/// A symbol as read, before ids are checked: its atoms are the range
/// `atoms` of the parse's atom ends.
struct RawSymbol {
    id: u32,
    target: SymTarget,
    cond: IntervalSet,
    root: bool,
    atoms: Range<usize>,
}

/// Parses the XML document form back into an incomplete tree, interning
/// label names into `alpha`.
///
/// One pass over the text: attribute values borrow the input, and
/// every entry of every atom goes into one arena (`entries`, cut into
/// atoms by `ends`) until the symbols are assembled.
pub fn parse_incomplete_xml(input: &str, alpha: &mut Alphabet) -> Result<IncompleteTree, IoError> {
    let mut p = Parser { input, pos: 0 };
    p.expect("<incomplete")?;
    p.expect(">")?;
    let mut nodes: BTreeMap<Nid, NodeInfo> = BTreeMap::new();
    // Symbols may reference higher ids; collect raw first.
    let mut raw: Vec<RawSymbol> = Vec::new();
    let mut entries: Vec<(u32, Mult)> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    let mut attrs = Attrs::default();
    let mut inner = Attrs::default();
    loop {
        if p.eat("</incomplete") {
            p.expect(">")?;
            break;
        }
        if p.eat("<data-node") {
            let closed = p.parse_attrs(&mut attrs)?;
            if !closed {
                return Err(p.err("data-node must be self-closing"));
            }
            let nid: u64 = attrs
                .nid
                .map(unescaped)
                .as_deref()
                .ok_or_else(|| p.err("data-node missing nid"))?
                .parse()
                .map_err(|e| p.err(format!("bad nid: {e}")))?;
            let label: Label = alpha.intern(
                attrs
                    .label
                    .map(unescaped)
                    .as_deref()
                    .ok_or_else(|| p.err("data-node missing label"))?,
            );
            let value: Rat = attrs
                .val
                .map(unescaped)
                .as_deref()
                .ok_or_else(|| p.err("data-node missing val"))?
                .parse()
                .map_err(|e| p.err(format!("bad val: {e}")))?;
            nodes.insert(Nid(nid), NodeInfo { label, value });
            continue;
        }
        if p.eat("<symbol") {
            let closed = p.parse_attrs(&mut attrs)?;
            let id: u32 = attrs
                .id
                .map(unescaped)
                .as_deref()
                .ok_or_else(|| p.err("symbol missing id"))?
                .parse()
                .map_err(|e| p.err(format!("bad id: {e}")))?;
            // `name=` (written before symbols lost their names) is
            // ignored, so older knowledge text still loads.
            let target = if let Some(n) = attrs.node.map(unescaped).as_deref() {
                SymTarget::Node(Nid(n
                    .parse()
                    .map_err(|e| p.err(format!("bad node: {e}")))?))
            } else if let Some(l) = attrs.label.map(unescaped).as_deref() {
                SymTarget::Lab(alpha.intern(l))
            } else {
                return Err(p.err("symbol needs node= or label="));
            };
            let cond = cond_intervals(attrs.cond.map(unescaped).as_deref().unwrap_or("true"))
                .map_err(|e| p.err(e.to_string()))?;
            let root = attrs.root.map(unescaped).as_deref() == Some("true");
            let first_atom = ends.len();
            if !closed {
                loop {
                    if p.eat("</symbol") {
                        p.expect(">")?;
                        break;
                    }
                    p.expect("<alt")?;
                    let alt_closed = p.parse_attrs(&mut inner)?;
                    if !alt_closed {
                        loop {
                            if p.eat("</alt") {
                                p.expect(">")?;
                                break;
                            }
                            p.expect("<e")?;
                            if !p.parse_attrs(&mut inner)? {
                                return Err(p.err("e must be self-closing"));
                            }
                            let sym: u32 = inner
                                .sym
                                .map(unescaped)
                                .as_deref()
                                .ok_or_else(|| p.err("e missing sym"))?
                                .parse()
                                .map_err(|e| p.err(format!("bad sym: {e}")))?;
                            let mult = match inner.mult.map(unescaped).as_deref() {
                                Some("1") => Mult::One,
                                Some("?") => Mult::Opt,
                                Some("+") => Mult::Plus,
                                Some("*") => Mult::Star,
                                other => return Err(p.err(format!("bad mult {other:?}"))),
                            };
                            entries.push((sym, mult));
                        }
                    }
                    ends.push(entries.len());
                }
            }
            raw.push(RawSymbol {
                id,
                target,
                cond,
                root,
                atoms: first_atom..ends.len(),
            });
            continue;
        }
        return Err(p.err("expected <data-node>, <symbol>, or </incomplete>"));
    }
    p.skip_ws();
    if !p.rest().is_empty() {
        return Err(p.err("trailing input"));
    }
    // Assemble: symbol ids must be dense 0..n in file order.
    raw.sort_by_key(|r| r.id);
    if let Some(i) = raw.iter().enumerate().position(|(i, r)| r.id as usize != i) {
        return Err(IoError {
            at: 0,
            message: format!("symbol ids must be dense; missing id {i}"),
        });
    }
    let n = raw.len() as u32;
    let mut ty = ConditionalTreeType::with_capacity(raw.len());
    let mut roots = Vec::new();
    // Every leaf symbol shares one `ε` right-hand side.
    let mut leaf: Option<Arc<Disjunction>> = None;
    for r in raw {
        let mut atoms = Vec::with_capacity(r.atoms.len());
        for k in r.atoms {
            let start = if k == 0 { 0 } else { ends[k - 1] };
            let atom = entries[start..ends[k]]
                .iter()
                .map(|&(sid, m)| {
                    if sid >= n {
                        Err(IoError {
                            at: 0,
                            message: format!("entry references unknown symbol {sid}"),
                        })
                    } else {
                        Ok((Sym(sid), m))
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            atoms.push(SAtom::new(atom));
        }
        let mu = match &atoms[..] {
            [atom] if atom.is_empty() => leaf
                .get_or_insert_with(|| Arc::new(Disjunction::leaf()))
                .clone(),
            _ => Arc::new(Disjunction(atoms)),
        };
        let s = ty.push_symbol(
            SymbolInfo {
                target: r.target,
                cond: r.cond,
            },
            mu,
        );
        if r.root {
            roots.push(s);
        }
    }
    ty.set_roots(roots);
    IncompleteTree::new(nodes, ty).map_err(|e| IoError {
        at: 0,
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iixml_values::IntervalSet;

    fn example() -> (IncompleteTree, Alphabet) {
        let alpha = Alphabet::from_names(["root", "a", "b"]);
        let mut nodes = BTreeMap::new();
        nodes.insert(
            Nid(0),
            NodeInfo {
                label: Label(0),
                value: Rat::ZERO,
            },
        );
        nodes.insert(
            Nid(1),
            NodeInfo {
                label: Label(1),
                value: Rat::ZERO,
            },
        );
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Node(Nid(0)), Cond::eq(Rat::ZERO).to_intervals());
        let n = ty.add_symbol(SymTarget::Node(Nid(1)), Cond::eq(Rat::ZERO).to_intervals());
        let a = ty.add_symbol(SymTarget::Lab(Label(1)), Cond::ne(Rat::ZERO).to_intervals());
        let b = ty.add_symbol(SymTarget::Lab(Label(2)), IntervalSet::all());
        ty.set_mu(
            r,
            Disjunction::single(SAtom::new(vec![(n, Mult::One), (a, Mult::Star)])),
        );
        ty.set_mu(n, Disjunction::single(SAtom::new(vec![(b, Mult::Star)])));
        ty.set_mu(a, Disjunction::single(SAtom::new(vec![(b, Mult::Star)])));
        ty.set_mu(b, Disjunction::leaf());
        ty.add_root(r);
        (IncompleteTree::new(nodes, ty).unwrap(), alpha)
    }

    #[test]
    fn roundtrip_exact() {
        let (it, alpha) = example();
        let xml = write_incomplete_xml(&it, &alpha);
        assert!(xml.contains("<data-node nid=\"0\""));
        assert!(xml.contains("root=\"true\""));
        let mut alpha2 = alpha.clone();
        let back = parse_incomplete_xml(&xml, &mut alpha2).unwrap();
        // Structural identity: serializing again gives the same text.
        assert_eq!(write_incomplete_xml(&back, &alpha2), xml);
        // Semantic identity on samples.
        let mut gen = iixml_tree::NidGen::starting_at(100);
        let w = it.witness(&mut gen).unwrap();
        assert!(back.contains(&w));
        assert_eq!(it.size(), back.size());
    }

    #[test]
    fn roundtrip_through_fresh_alphabet() {
        let (it, alpha) = example();
        let xml = write_incomplete_xml(&it, &alpha);
        let mut fresh = Alphabet::new();
        let back = parse_incomplete_xml(&xml, &mut fresh).unwrap();
        // Re-serializing with the fresh alphabet reproduces the text.
        assert_eq!(write_incomplete_xml(&back, &fresh), xml);
    }

    #[test]
    fn parse_errors() {
        let mut a = Alphabet::new();
        assert!(parse_incomplete_xml("", &mut a).is_err());
        assert!(parse_incomplete_xml("<incomplete>", &mut a).is_err());
        assert!(parse_incomplete_xml(
            "<incomplete><data-node nid=\"x\" label=\"a\" val=\"0\"/></incomplete>",
            &mut a
        )
        .is_err());
        assert!(
            parse_incomplete_xml(
                "<incomplete><symbol id=\"0\" name=\"s\" cond=\"true\"/></incomplete>",
                &mut a
            )
            .is_err(),
            "symbol without target"
        );
        // Entry referencing an unknown symbol.
        let bad = "<incomplete><symbol id=\"0\" name=\"s\" label=\"a\" cond=\"true\"><alt><e sym=\"9\" mult=\"*\"/></alt></symbol></incomplete>";
        assert!(parse_incomplete_xml(bad, &mut a).is_err());
        // Symbol targeting an undeclared data node.
        let bad = "<incomplete><symbol id=\"0\" name=\"s\" node=\"5\" cond=\"true\" root=\"true\"/></incomplete>";
        assert!(parse_incomplete_xml(bad, &mut a).is_err());
    }

    #[test]
    fn refined_tree_roundtrips() {
        // A tree produced by an actual Refine chain round-trips.
        use crate::refine::Refiner;
        use iixml_query::PsQueryBuilder;
        use iixml_tree::DataTree;
        let mut alpha = Alphabet::from_names(["root", "a", "b"]);
        let mut doc = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        doc.add_child(doc.root(), Nid(1), Label(1), Rat::from(5))
            .unwrap();
        let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let root = b.root();
        b.child(root, "a", Cond::lt(Rat::from(10))).unwrap();
        let q = b.build();
        let mut refiner = Refiner::new(&alpha);
        refiner.refine(&alpha, &q, &q.eval(&doc)).unwrap();
        let it = refiner.current();
        let xml = write_incomplete_xml(it, &alpha);
        let mut alpha2 = alpha.clone();
        let back = parse_incomplete_xml(&xml, &mut alpha2).unwrap();
        assert_eq!(write_incomplete_xml(&back, &alpha2), xml);
        assert!(back.contains(&doc));
    }
}
