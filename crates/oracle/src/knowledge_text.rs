//! The knowledge-text parser kept as the slow reference for
//! `iixml_core::io::parse_incomplete_xml`.
//!
//! [`parse_incomplete_xml_reference`] is the parser as it was before
//! it became a single pass: it collects every element's attributes
//! into owned `(String, String)` pairs, unescapes every value, and
//! keeps each symbol's atoms as nested vectors. The shipping parser
//! must accept exactly the same texts, build the same trees, and fail
//! at the same offsets with the same messages; `tests/knowledge_parse.rs`
//! checks that, and the `cpu` bench area's `knowledge_parse_*` rows
//! time the shipping one.

use iixml_core::io::IoError;
use iixml_core::{
    ConditionalTreeType, Disjunction, IncompleteTree, NodeInfo, SAtom, Sym, SymTarget,
};
use iixml_tree::{Alphabet, Label, Mult, Nid};
use iixml_values::parse::parse_cond;
use iixml_values::Rat;
use std::collections::BTreeMap;

fn xml_unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&quot;", "\"")
        .replace("&amp;", "&")
}

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

/// The knowledge-text parser as it stood before its single-pass
/// rewrite: interns label names into `alpha` and returns what
/// `iixml_core::io::parse_incomplete_xml` must return on every input,
/// the same tree or an error with the same offset and message.
pub fn parse_incomplete_xml_reference(
    input: &str,
    alpha: &mut Alphabet,
) -> Result<IncompleteTree, IoError> {
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
