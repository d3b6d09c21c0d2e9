//! A minimal XML-ish serialization of data trees.
//!
//! The paper observes that its representations "can be itself naturally
//! represented and browsed as an XML document". This module writes data
//! trees as nested elements carrying `nid` and `val` attributes, and
//! parses the same syntax back:
//!
//! ```text
//! <catalog nid="0" val="0">
//!   <product nid="1" val="120"/>
//! </catalog>
//! ```
//!
//! Element names must be XML-name-like (`[A-Za-z_][A-Za-z0-9_.-]*`); this
//! is a deliberate simplification — the substrate only needs to round-trip
//! the paper's abstract model, not handle full XML.
//!
//! A document may nest at most [`MAX_TREE_DEPTH`] levels; deeper input is
//! refused before the parser recurses into it.

use crate::label::Alphabet;
use crate::tree::{DataTree, Nid, NodeRef};
use iixml_values::Rat;
use std::fmt;

/// Serializes a tree to the XML-ish syntax.
pub fn write_tree(t: &DataTree, alpha: &Alphabet) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    // Writes straight into `out` — this sits on the journal's append
    // hot path (every logged refine spells its answer tree), so no
    // per-node temporaries.
    fn pad(out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
    fn go(t: &DataTree, alpha: &Alphabet, n: NodeRef, depth: usize, out: &mut String) {
        pad(out, depth);
        let name = alpha.name(t.label(n));
        let _ = write!(out, "<{name} nid=\"{}\" val=\"{}\"", t.nid(n).0, t.value(n));
        if t.children(n).is_empty() {
            out.push_str("/>\n");
        } else {
            out.push_str(">\n");
            for &c in t.children(n) {
                go(t, alpha, c, depth + 1, out);
            }
            pad(out, depth);
            let _ = writeln!(out, "</{name}>");
        }
    }
    go(t, alpha, t.root(), 0, &mut out);
    out
}

/// The deepest nesting [`parse_tree`] accepts (the root is level 1).
/// The parser recurses once per level, so this bounds its stack use on
/// outside input; a document this deep parses on a thread with a 2 MiB
/// stack, the size spawned worker threads get.
pub const MAX_TREE_DEPTH: usize = 1024;

/// Error from parsing the XML-ish syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset of the error.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for XmlError {}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, m: impl Into<String>) -> XmlError {
        XmlError {
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
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &str) -> Result<(), XmlError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{tok}'")))
        }
    }

    fn parse_name(&mut self) -> Result<&'a str, XmlError> {
        let rest = self.rest();
        let mut end = 0;
        for (i, c) in rest.char_indices() {
            let ok = if i == 0 {
                c.is_ascii_alphabetic() || c == '_'
            } else {
                c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')
            };
            if !ok {
                break;
            }
            end = i + c.len_utf8();
        }
        if end == 0 {
            return Err(self.err("expected element name"));
        }
        self.pos += end;
        Ok(&rest[..end])
    }

    fn parse_attr(&mut self, key: &str) -> Result<&'a str, XmlError> {
        self.skip_ws();
        self.expect(key)?;
        self.expect("=")?;
        self.expect("\"")?;
        let rest = self.rest();
        let end = rest
            .find('"')
            .ok_or_else(|| self.err("unterminated attribute"))?;
        let v = &rest[..end];
        self.pos += end + 1;
        Ok(v)
    }

    fn parse_node_header(
        &mut self,
        alpha: &mut Alphabet,
    ) -> Result<(&'a str, Nid, Rat, bool), XmlError> {
        self.skip_ws();
        self.expect("<")?;
        let name = self.parse_name()?;
        alpha.intern(name);
        let nid = self
            .parse_attr("nid")?
            .parse::<u64>()
            .map_err(|e| self.err(format!("bad nid: {e}")))?;
        let val: Rat = self
            .parse_attr("val")?
            .parse()
            .map_err(|e| self.err(format!("bad val: {e}")))?;
        self.skip_ws();
        let self_closing = self.eat("/>");
        if !self_closing {
            self.expect(">")?;
        }
        Ok((name, Nid(nid), val, self_closing))
    }
}

/// Parses the XML-ish syntax into a tree, interning names into `alpha`.
pub fn parse_tree(input: &str, alpha: &mut Alphabet) -> Result<DataTree, XmlError> {
    let mut p = Parser { input, pos: 0 };
    let (name, nid, val, closed) = p.parse_node_header(alpha)?;
    let label = alpha.intern(name);
    let mut tree = DataTree::new(nid, label, val);
    if !closed {
        let root = tree.root();
        parse_children(&mut p, alpha, &mut tree, root, name, 1)?;
    }
    p.skip_ws();
    if !p.rest().is_empty() {
        return Err(p.err("trailing input"));
    }
    Ok(tree)
}

/// Parses the children of `parent`, which sits at nesting level
/// `depth`, up to its close tag.
fn parse_children(
    p: &mut Parser,
    alpha: &mut Alphabet,
    tree: &mut DataTree,
    parent: NodeRef,
    parent_name: &str,
    depth: usize,
) -> Result<(), XmlError> {
    loop {
        p.skip_ws();
        if p.eat("</") {
            let name = p.parse_name()?;
            if name != parent_name {
                return Err(p.err(format!(
                    "mismatched close tag: expected {parent_name}, got {name}"
                )));
            }
            p.skip_ws();
            p.expect(">")?;
            return Ok(());
        }
        if depth >= MAX_TREE_DEPTH {
            return Err(p.err(format!("tree nests deeper than {MAX_TREE_DEPTH} levels")));
        }
        let (name, nid, val, closed) = p.parse_node_header(alpha)?;
        let label = alpha.intern(name);
        let child = tree
            .add_child(parent, nid, label, val)
            .map_err(|e| p.err(e.to_string()))?;
        if !closed {
            parse_children(p, alpha, tree, child, name, depth + 1)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Alphabet, DataTree) {
        let mut alpha = Alphabet::new();
        let cat = alpha.intern("catalog");
        let prod = alpha.intern("product");
        let price = alpha.intern("price");
        let mut t = DataTree::new(Nid(0), cat, Rat::ZERO);
        let p = t.add_child(t.root(), Nid(1), prod, Rat::ZERO).unwrap();
        t.add_child(p, Nid(2), price, Rat::new(399, 2)).unwrap();
        t.add_child(t.root(), Nid(3), prod, Rat::from(7)).unwrap();
        (alpha, t)
    }

    #[test]
    fn roundtrip() {
        let (mut alpha, t) = sample();
        let text = write_tree(&t, &alpha);
        let back = parse_tree(&text, &mut alpha).unwrap();
        assert!(t.same_tree(&back));
    }

    #[test]
    fn written_form_looks_like_xml() {
        let (alpha, t) = sample();
        let text = write_tree(&t, &alpha);
        assert!(text.starts_with("<catalog nid=\"0\" val=\"0\">"));
        assert!(text.contains("<price nid=\"2\" val=\"399/2\"/>"));
        assert!(text.trim_end().ends_with("</catalog>"));
    }

    #[test]
    fn parse_fresh_alphabet() {
        let (alpha, t) = sample();
        let text = write_tree(&t, &alpha);
        let mut fresh = Alphabet::new();
        let back = parse_tree(&text, &mut fresh).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(fresh.len(), 3);
    }

    /// A chain of `levels` nested elements, the innermost self-closing.
    fn chain(levels: usize) -> String {
        let mut text = String::new();
        for i in 0..levels - 1 {
            text.push_str(&format!("<a nid=\"{i}\" val=\"0\">"));
        }
        text.push_str(&format!("<a nid=\"{}\" val=\"0\"/>", levels - 1));
        text.push_str(&"</a>".repeat(levels - 1));
        text
    }

    #[test]
    fn nesting_is_bounded() {
        // The deepest accepted document parses on a 2 MiB stack, the
        // size `std::thread` gives a spawned worker (the par_map pool
        // that replays journals at recovery).
        let t = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| parse_tree(&chain(MAX_TREE_DEPTH), &mut Alphabet::new()).map(|t| t.len()))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(t.unwrap(), MAX_TREE_DEPTH);
        let err = parse_tree(&chain(MAX_TREE_DEPTH + 1), &mut Alphabet::new()).unwrap_err();
        assert!(err.message.contains("deeper than"), "{err}");
        // Far deeper input is refused at the bound, not by the stack.
        assert!(parse_tree(&chain(100_000), &mut Alphabet::new()).is_err());
    }

    #[test]
    fn errors() {
        let mut a = Alphabet::new();
        assert!(parse_tree("", &mut a).is_err());
        assert!(parse_tree("<a nid=\"0\" val=\"0\">", &mut a).is_err());
        assert!(parse_tree("<a nid=\"0\" val=\"0\"></b>", &mut a).is_err());
        assert!(parse_tree("<a nid=\"x\" val=\"0\"/>", &mut a).is_err());
        assert!(parse_tree("<a nid=\"0\" val=\"y\"/>", &mut a).is_err());
        assert!(parse_tree("<a nid=\"0\" val=\"0\"/><b nid=\"1\" val=\"0\"/>", &mut a).is_err());
        // Duplicate nid.
        let bad = "<a nid=\"0\" val=\"0\"><b nid=\"0\" val=\"0\"/></a>";
        assert!(parse_tree(bad, &mut a).is_err());
    }
}
