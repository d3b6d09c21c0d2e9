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

use crate::ctt::{ConditionalTreeType, Disjunction, SAtom, Sym, SymTarget};
use crate::itree::{IncompleteTree, NodeInfo};
use iixml_tree::{Alphabet, Label, Mult, Nid};
use iixml_values::parse::parse_cond;
use iixml_values::{Cond, Rat};
use std::collections::BTreeMap;
use std::fmt;

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

    fn skip_ws(&mut self) {
        let t = self.rest().trim_start();
        self.pos = self.input.len() - t.len();
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

    /// Parses `key="value"` pairs until `/>` or `>`; returns the pairs
    /// and whether the element was self-closing.
    fn parse_attrs(&mut self) -> Result<(Vec<(String, String)>, bool), IoError> {
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            if self.eat("/>") {
                return Ok((attrs, true));
            }
            if self.eat(">") {
                return Ok((attrs, false));
            }
            let rest = self.rest();
            let eq = rest
                .find('=')
                .ok_or_else(|| self.err("expected attribute"))?;
            let key = rest[..eq].trim().to_string();
            self.pos += eq + 1;
            self.expect("\"")?;
            let rest = self.rest();
            let close = rest
                .find('"')
                .ok_or_else(|| self.err("unterminated attribute value"))?;
            let value = xml_unescape(&rest[..close]);
            self.pos += close + 1;
            attrs.push((key, value));
        }
    }
}

fn get<'v>(attrs: &'v [(String, String)], key: &str) -> Option<&'v str> {
    attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Parses the XML document form back into an incomplete tree, interning
/// label names into `alpha`.
pub fn parse_incomplete_xml(input: &str, alpha: &mut Alphabet) -> Result<IncompleteTree, IoError> {
    let mut p = Parser { input, pos: 0 };
    p.expect("<incomplete")?;
    p.expect(">")?;
    let mut nodes: BTreeMap<Nid, NodeInfo> = BTreeMap::new();
    // Symbols may reference higher ids; collect raw first.
    struct RawSymbol {
        id: u32,
        target: SymTarget,
        cond: iixml_values::IntervalSet,
        root: bool,
        atoms: Vec<Vec<(u32, Mult)>>,
    }
    let mut raw: Vec<RawSymbol> = Vec::new();
    loop {
        if p.eat("</incomplete") {
            p.expect(">")?;
            break;
        }
        if p.eat("<data-node") {
            let (attrs, closed) = p.parse_attrs()?;
            if !closed {
                return Err(p.err("data-node must be self-closing"));
            }
            let nid: u64 = get(&attrs, "nid")
                .ok_or_else(|| p.err("data-node missing nid"))?
                .parse()
                .map_err(|e| p.err(format!("bad nid: {e}")))?;
            let label: Label =
                alpha.intern(get(&attrs, "label").ok_or_else(|| p.err("data-node missing label"))?);
            let value: Rat = get(&attrs, "val")
                .ok_or_else(|| p.err("data-node missing val"))?
                .parse()
                .map_err(|e| p.err(format!("bad val: {e}")))?;
            nodes.insert(Nid(nid), NodeInfo { label, value });
            continue;
        }
        if p.eat("<symbol") {
            let (attrs, closed) = p.parse_attrs()?;
            let id: u32 = get(&attrs, "id")
                .ok_or_else(|| p.err("symbol missing id"))?
                .parse()
                .map_err(|e| p.err(format!("bad id: {e}")))?;
            // `name=` (written before symbols lost their names) is
            // ignored, so older knowledge text still loads.
            let target = if let Some(n) = get(&attrs, "node") {
                SymTarget::Node(Nid(n
                    .parse()
                    .map_err(|e| p.err(format!("bad node: {e}")))?))
            } else if let Some(l) = get(&attrs, "label") {
                SymTarget::Lab(alpha.intern(l))
            } else {
                return Err(p.err("symbol needs node= or label="));
            };
            let cond = parse_cond(get(&attrs, "cond").unwrap_or("true"))
                .map_err(|e| p.err(e.to_string()))?
                .to_intervals();
            let root = get(&attrs, "root") == Some("true");
            let mut atoms = Vec::new();
            if !closed {
                loop {
                    if p.eat("</symbol") {
                        p.expect(">")?;
                        break;
                    }
                    p.expect("<alt")?;
                    let (_, alt_closed) = p.parse_attrs()?;
                    let mut entries = Vec::new();
                    if !alt_closed {
                        loop {
                            if p.eat("</alt") {
                                p.expect(">")?;
                                break;
                            }
                            p.expect("<e")?;
                            let (eattrs, eclosed) = p.parse_attrs()?;
                            if !eclosed {
                                return Err(p.err("e must be self-closing"));
                            }
                            let sym: u32 = get(&eattrs, "sym")
                                .ok_or_else(|| p.err("e missing sym"))?
                                .parse()
                                .map_err(|e| p.err(format!("bad sym: {e}")))?;
                            let mult = match get(&eattrs, "mult") {
                                Some("1") => Mult::One,
                                Some("?") => Mult::Opt,
                                Some("+") => Mult::Plus,
                                Some("*") => Mult::Star,
                                other => return Err(p.err(format!("bad mult {other:?}"))),
                            };
                            entries.push((sym, mult));
                        }
                    }
                    atoms.push(entries);
                }
            }
            raw.push(RawSymbol {
                id,
                target,
                cond,
                root,
                atoms,
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
    let mut ty = ConditionalTreeType::new();
    for (i, r) in raw.iter().enumerate() {
        if r.id as usize != i {
            return Err(IoError {
                at: 0,
                message: format!("symbol ids must be dense; missing id {i}"),
            });
        }
        ty.add_symbol(r.target, r.cond.clone());
    }
    let n = raw.len() as u32;
    for r in &raw {
        let atoms = r
            .atoms
            .iter()
            .map(|entries| {
                let es: Result<Vec<(Sym, Mult)>, IoError> = entries
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
                    .collect();
                es.map(SAtom::new)
            })
            .collect::<Result<Vec<_>, _>>()?;
        ty.set_mu(Sym(r.id), Disjunction(atoms));
        if r.root {
            ty.add_root(Sym(r.id));
        }
    }
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
