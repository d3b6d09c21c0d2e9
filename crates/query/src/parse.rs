//! A concise text syntax for ps-queries, mirroring the paper's figures.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! query    := node
//! node     := name bar? cond? children?
//! name     := [A-Za-z_][A-Za-z0-9_.-]*
//! bar      := '!'                       (the paper's overline ā)
//! cond     := '[' condition ']'         (iixml_values::parse syntax)
//! children := '/' node                  (single child)
//!           | '{' node (',' node)* '}'  (several children)
//! ```
//!
//! Examples (Queries 1 and 2 of the paper):
//!
//! ```text
//! catalog/product{name, price[< 200], cat[= 1]/subcat}
//! catalog/product{name, cat[= 1]/subcat[= 10], picture}
//! ```
//!
//! `picture!` marks a barred node (whole-subtree extraction).
//!
//! A query may nest at most [`MAX_QUERY_DEPTH`] levels; deeper input is
//! refused before the parser recurses into it.

use crate::pattern::{PsQuery, PsQueryBuilder, QNodeRef};
use iixml_tree::Alphabet;
use iixml_values::parse::parse_cond;
use iixml_values::Cond;
use std::fmt;

/// Error from parsing the query syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for QueryParseError {}

/// The deepest nesting [`parse_ps_query`] accepts (the root is level 1).
/// The parser recurses once per level, so this bounds its stack use on
/// outside input.
pub const MAX_QUERY_DEPTH: usize = 256;

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, m: impl Into<String>) -> QueryParseError {
        QueryParseError {
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

    fn parse_name(&mut self) -> Result<&'a str, QueryParseError> {
        self.skip_ws();
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

    /// Parses `bar? cond?` after a name.
    fn parse_adornments(&mut self) -> Result<(bool, Cond), QueryParseError> {
        let barred = self.eat("!");
        let cond = if self.eat("[") {
            let rest = self.rest();
            let close = rest
                .find(']')
                .ok_or_else(|| self.err("unterminated condition"))?;
            let text = &rest[..close];
            let c = parse_cond(text).map_err(|e| self.err(e.to_string()))?;
            self.pos += close + 1;
            c
        } else {
            Cond::True
        };
        Ok((barred, cond))
    }

    /// Parses the children of `parent`, which sits at nesting level
    /// `depth`.
    fn parse_children(
        &mut self,
        b: &mut PsQueryBuilder,
        parent: QNodeRef,
        depth: usize,
    ) -> Result<(), QueryParseError> {
        if self.eat("/") {
            self.parse_node(b, parent, depth + 1)
        } else if self.eat("{") {
            loop {
                self.parse_node(b, parent, depth + 1)?;
                if self.eat(",") {
                    continue;
                }
                if self.eat("}") {
                    return Ok(());
                }
                return Err(self.err("expected ',' or '}'"));
            }
        } else {
            Ok(())
        }
    }

    /// Parses one node, at nesting level `depth`, under `parent`.
    fn parse_node(
        &mut self,
        b: &mut PsQueryBuilder,
        parent: QNodeRef,
        depth: usize,
    ) -> Result<(), QueryParseError> {
        if depth > MAX_QUERY_DEPTH {
            return Err(self.err(format!("query nests deeper than {MAX_QUERY_DEPTH} levels")));
        }
        let name = self.parse_name()?.to_string();
        let (barred, cond) = self.parse_adornments()?;
        let node = if barred {
            b.barred_child(parent, &name, cond)
        } else {
            b.child(parent, &name, cond)
        }
        .map_err(|e| self.err(e.to_string()))?;
        if barred {
            // Barred nodes are leaves; reject children syntactically.
            self.skip_ws();
            if self.rest().starts_with('/') || self.rest().starts_with('{') {
                return Err(self.err("barred node cannot have children"));
            }
            return Ok(());
        }
        self.parse_children(b, node, depth)
    }
}

/// Parses the textual query syntax, interning names into `alpha`.
///
/// ```
/// use iixml_query::parse::parse_ps_query;
/// use iixml_tree::Alphabet;
/// let mut alpha = Alphabet::new();
/// let q = parse_ps_query(
///     "catalog/product{name, price[< 200], cat[= 1]/subcat}",
///     &mut alpha,
/// )
/// .unwrap();
/// assert_eq!(q.len(), 6);
/// ```
pub fn parse_ps_query(input: &str, alpha: &mut Alphabet) -> Result<PsQuery, QueryParseError> {
    let mut p = Parser { input, pos: 0 };
    let name = p.parse_name()?.to_string();
    let (barred, cond) = p.parse_adornments()?;
    if barred {
        return Err(p.err("the query root cannot be barred"));
    }
    let mut b = PsQueryBuilder::new(alpha, &name, cond);
    let root = b.root();
    p.parse_children(&mut b, root, 1)?;
    p.skip_ws();
    if !p.rest().is_empty() {
        return Err(p.err("trailing input"));
    }
    Ok(b.build())
}

impl PsQuery {
    /// Renders the query in the [`parse_ps_query`] syntax (canonical:
    /// conditions in normalized display form).
    pub fn to_text(&self, alpha: &Alphabet) -> String {
        fn node(q: &PsQuery, alpha: &Alphabet, m: QNodeRef, out: &mut String) {
            out.push_str(alpha.name(q.label(m)));
            if q.barred(m) {
                out.push('!');
            }
            if *q.cond(m) != Cond::True {
                out.push('[');
                out.push_str(&q.cond(m).to_string());
                out.push(']');
            }
            let kids = q.children(m);
            match kids.len() {
                0 => {}
                1 => {
                    out.push('/');
                    node(q, alpha, kids[0], out);
                }
                _ => {
                    out.push('{');
                    for (i, &k) in kids.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        node(q, alpha, k, out);
                    }
                    out.push('}');
                }
            }
        }
        let mut out = String::new();
        node(self, alpha, self.root(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iixml_values::Rat;

    #[test]
    fn paper_query1() {
        let mut alpha = Alphabet::new();
        let q = parse_ps_query(
            "catalog/product{name, price[< 200], cat[= 1]/subcat}",
            &mut alpha,
        )
        .unwrap();
        assert_eq!(q.len(), 6);
        assert!(!q.is_linear());
        // Find the price node and check its condition.
        let price = alpha.get("price").unwrap();
        let m = q
            .preorder()
            .iter()
            .copied()
            .find(|&m| q.label(m) == price)
            .unwrap();
        assert!(q.cond(m).equivalent(&Cond::lt(Rat::from(200))));
    }

    #[test]
    fn barred_and_linear() {
        let mut alpha = Alphabet::new();
        let q = parse_ps_query("catalog/product/picture!", &mut alpha).unwrap();
        assert_eq!(q.len(), 3);
        let pic = alpha.get("picture").unwrap();
        let m = q
            .preorder()
            .iter()
            .copied()
            .find(|&m| q.label(m) == pic)
            .unwrap();
        assert!(q.barred(m));
        assert!(q.is_linear());
    }

    #[test]
    fn errors() {
        let mut a = Alphabet::new();
        assert!(parse_ps_query("", &mut a).is_err());
        assert!(parse_ps_query("r/", &mut a).is_err());
        assert!(parse_ps_query("r{a,}", &mut a).is_err());
        assert!(parse_ps_query("r{a", &mut a).is_err());
        assert!(parse_ps_query("r[< 5", &mut a).is_err());
        assert!(parse_ps_query("r[oops]", &mut a).is_err());
        assert!(parse_ps_query("r!{a}", &mut a).is_err(), "barred root");
        assert!(parse_ps_query("r/a!/b", &mut a).is_err(), "child of barred");
        assert!(
            parse_ps_query("r{a, a}", &mut a).is_err(),
            "duplicate sibling"
        );
        assert!(parse_ps_query("r/a extra", &mut a).is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let mut alpha = Alphabet::new();
        let deep = |levels: usize| format!("r{}", "/a".repeat(levels - 1));
        let q = parse_ps_query(&deep(MAX_QUERY_DEPTH), &mut alpha).unwrap();
        assert_eq!(q.len(), MAX_QUERY_DEPTH);
        let err = parse_ps_query(&deep(MAX_QUERY_DEPTH + 1), &mut alpha).unwrap_err();
        assert!(err.message.contains("deeper than"), "{err}");
        // Braces nest the same way: `r{a, b{a, b{...}}}`.
        let braced =
            |levels: usize| format!("r{}{}", "{a, b".repeat(levels - 1), "}".repeat(levels - 1));
        assert!(parse_ps_query(&braced(MAX_QUERY_DEPTH), &mut alpha).is_ok());
        let err = parse_ps_query(&braced(MAX_QUERY_DEPTH + 1), &mut alpha).unwrap_err();
        assert!(err.message.contains("deeper than"), "{err}");
    }

    #[test]
    fn roundtrip() {
        let mut alpha = Alphabet::new();
        for text in [
            "catalog",
            "catalog[= 0]",
            "catalog/product{name, price[< 200], cat[= 1]/subcat}",
            "r{a[(>= 1 & <= 2) | = 9], b!/",
        ] {
            let Ok(q) = parse_ps_query(text, &mut alpha) else {
                continue; // the deliberately broken last case
            };
            let rendered = q.to_text(&alpha);
            let q2 = parse_ps_query(&rendered, &mut alpha).unwrap();
            assert_eq!(q.len(), q2.len(), "{text} -> {rendered}");
            assert_eq!(rendered, q2.to_text(&alpha));
        }
    }

    #[test]
    fn whitespace_insensitive() {
        let mut alpha = Alphabet::new();
        let q1 = parse_ps_query("r { a , b [ = 1 ] / c }", &mut alpha).unwrap();
        let q2 = parse_ps_query("r{a,b[=1]/c}", &mut alpha).unwrap();
        assert_eq!(q1.to_text(&alpha), q2.to_text(&alpha));
    }
}
