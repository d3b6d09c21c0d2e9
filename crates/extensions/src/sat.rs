//! The 3-SAT reduction of Theorem 3.6: deciding whether a tree is a
//! *possible prefix* given a tree type and a sequence of ps-query-answer
//! pairs is NP-hard (and co-NP-hard for *certain prefix*), independently
//! of the representation system.
//!
//! The construction follows the paper: a document encodes a truth
//! assignment (one `var` node per variable with a 0/1 `val` child) and
//! the clause structure of the formula (pinned by query answers); empty
//! answers to a family of consistency queries force literal values to
//! agree with variable values; a final empty answer forces the
//! root-level `val` to be 1 only when every clause has a true literal.
//! The formula is then satisfiable iff `root—val(=1)` is a possible
//! prefix.
//!
//! The accumulated knowledge is kept as a [`ConjunctiveTree`]
//! (Theorem 3.8: polynomial in the query sequence); the possible-prefix
//! decision is made by scanning the *canonical worlds* of the encoding —
//! one per assignment and root value, justified by Lemma 2.3's
//! finite-representative argument — against the PTIME membership test of
//! every layer. (Deciding it directly on the conjunctive representation
//! is exactly the NP-complete emptiness problem of Theorem 3.10, also
//! exposed here as [`SatEncoding::emptiness_instance`].)

use iixml_core::type_intersect::restrict_to_type;
use iixml_core::{ConjunctiveTree, IncompleteTree};
use iixml_query::{Answer, PsQueryBuilder};
use iixml_tree::{Alphabet, DataTree, Mult, Nid, NodeRef, TreeType, TreeTypeBuilder};
use iixml_values::{Cond, Rat};

/// A CNF formula with exactly three literals per clause. Literals are
/// nonzero integers: `+i` / `-i` for variable `i` (1-based).
#[derive(Clone, Debug)]
pub struct Cnf {
    /// Number of variables.
    pub num_vars: usize,
    /// The clauses.
    pub clauses: Vec<[i64; 3]>,
}

impl Cnf {
    /// Evaluates under an assignment (`assign[i-1]` = value of `x_i`).
    pub fn eval(&self, assign: &[bool]) -> bool {
        self.clauses.iter().all(|c| {
            c.iter().any(|&lit| {
                let v = assign[(lit.unsigned_abs() as usize) - 1];
                if lit > 0 {
                    v
                } else {
                    !v
                }
            })
        })
    }

    /// Brute-force satisfiability (the test oracle).
    pub fn brute_force_sat(&self) -> bool {
        (0..(1u32 << self.num_vars)).any(|bits| {
            let assign: Vec<bool> = (0..self.num_vars).map(|i| bits & (1 << i) != 0).collect();
            self.eval(&assign)
        })
    }
}

/// The Theorem 3.6 encoding of a CNF formula.
pub struct SatEncoding {
    /// The element alphabet.
    pub alpha: Alphabet,
    /// The input tree type of the reduction.
    pub ty: TreeType,
    /// The accumulated query-answer knowledge (conjunctive — polynomial
    /// in the sequence, Corollary 3.9).
    pub conj: ConjunctiveTree,
    /// Number of query-answer pairs in the sequence.
    pub num_queries: usize,
    formula: Cnf,
}

const ROOT_ID: u64 = 0;
const VAR_BASE: u64 = 10;
const CLAUSE_BASE: u64 = 1_000;

/// `value ∉ {0, 1}`.
fn not_bool() -> Cond {
    Cond::ne(Rat::ZERO).and(Cond::ne(Rat::ONE))
}

/// Builds the full encoding: tree type, query-answer sequence, and the
/// conjunctive knowledge tree.
pub fn encode(cnf: &Cnf) -> SatEncoding {
    let mut alpha = Alphabet::new();
    let ty = TreeTypeBuilder::new(&mut alpha)
        .root("root")
        .rule(
            "root",
            &[
                ("var", Mult::Star),
                ("clause", Mult::Star),
                ("val", Mult::One),
            ],
        )
        .rule("var", &[("val", Mult::One)])
        .rule(
            "clause",
            &[
                ("lit1", Mult::One),
                ("lit2", Mult::One),
                ("lit3", Mult::One),
            ],
        )
        .rule("lit1", &[("val", Mult::One)])
        .rule("lit2", &[("val", Mult::One)])
        .rule("lit3", &[("val", Mult::One)])
        .build()
        .expect("well-formed type");

    // The type as the base layer.
    let labels: Vec<_> = alpha.labels().collect();
    let universal = IncompleteTree::universal(&labels);
    let base = restrict_to_type(&universal, &ty);
    let mut conj = ConjunctiveTree::from_layers(vec![base]);
    let mut num_queries = 0usize;

    // A canonical world (assignment all-false, root val 0) supplies the
    // answers to the two nonempty queries.
    let w0 = canonical_world(cnf, &alpha, &vec![false; cnf.num_vars], false);

    // qA: all variables.
    {
        let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let root = b.root();
        b.child(root, "var", Cond::True).unwrap();
        let q = b.build();
        let a = q.eval(&w0);
        conj.refine(&alpha, &q, &a).expect("consistent");
        num_queries += 1;
    }
    // qB: all clauses with their three literals.
    {
        let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let root = b.root();
        let c = b.child(root, "clause", Cond::True).unwrap();
        b.child(c, "lit1", Cond::True).unwrap();
        b.child(c, "lit2", Cond::True).unwrap();
        b.child(c, "lit3", Cond::True).unwrap();
        let q = b.build();
        let a = q.eval(&w0);
        conj.refine(&alpha, &q, &a).expect("consistent");
        num_queries += 1;
    }
    // qC: variable values are 0/1 (empty answer).
    {
        let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let root = b.root();
        let v = b.child(root, "var", Cond::True).unwrap();
        b.child(v, "val", not_bool()).unwrap();
        let q = b.build();
        conj.refine(&alpha, &q, &Answer::empty())
            .expect("consistent");
        num_queries += 1;
    }
    // Root-level val is 0/1.
    {
        let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let root = b.root();
        b.child(root, "val", not_bool()).unwrap();
        let q = b.build();
        conj.refine(&alpha, &q, &Answer::empty())
            .expect("consistent");
        num_queries += 1;
    }
    // qD_k: literal values are 0/1.
    for k in 1..=3 {
        let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let root = b.root();
        let c = b.child(root, "clause", Cond::True).unwrap();
        let l = b.child(c, &format!("lit{k}"), Cond::True).unwrap();
        b.child(l, "val", not_bool()).unwrap();
        let q = b.build();
        conj.refine(&alpha, &q, &Answer::empty())
            .expect("consistent");
        num_queries += 1;
    }
    // qE(i, v, k, s): literal values agree with variable values.
    for i in 1..=cnf.num_vars as i64 {
        for v in [0i64, 1] {
            for k in 1..=3 {
                for s in [1i64, -1] {
                    let truth = if s > 0 { v } else { 1 - v };
                    let wrong = 1 - truth;
                    let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
                    let root = b.root();
                    let var = b.child(root, "var", Cond::eq(Rat::from(i))).unwrap();
                    b.child(var, "val", Cond::eq(Rat::from(v))).unwrap();
                    let c = b.child(root, "clause", Cond::True).unwrap();
                    let l = b
                        .child(c, &format!("lit{k}"), Cond::eq(Rat::from(s * i)))
                        .unwrap();
                    b.child(l, "val", Cond::eq(Rat::from(wrong))).unwrap();
                    let q = b.build();
                    conj.refine(&alpha, &q, &Answer::empty())
                        .expect("consistent");
                    num_queries += 1;
                }
            }
        }
    }
    // qF: val=1 implies no all-false clause.
    {
        let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let root = b.root();
        b.child(root, "val", Cond::eq(Rat::ONE)).unwrap();
        let c = b.child(root, "clause", Cond::True).unwrap();
        for k in 1..=3 {
            let l = b.child(c, &format!("lit{k}"), Cond::True).unwrap();
            b.child(l, "val", Cond::eq(Rat::ZERO)).unwrap();
        }
        let q = b.build();
        conj.refine(&alpha, &q, &Answer::empty())
            .expect("consistent");
        num_queries += 1;
    }

    SatEncoding {
        alpha,
        ty,
        conj,
        num_queries,
        formula: cnf.clone(),
    }
}

/// The canonical world for an assignment: variables with their values,
/// clause literals with the induced truth values, and the given
/// root-level `val`.
pub fn canonical_world(cnf: &Cnf, alpha: &Alphabet, assign: &[bool], root_val: bool) -> DataTree {
    let root_l = alpha.get("root").expect("encode interned labels");
    let var_l = alpha.get("var").unwrap();
    let val_l = alpha.get("val").unwrap();
    let clause_l = alpha.get("clause").unwrap();
    let lit_l = [
        alpha.get("lit1").unwrap(),
        alpha.get("lit2").unwrap(),
        alpha.get("lit3").unwrap(),
    ];
    let mut t = DataTree::new(Nid(ROOT_ID), root_l, Rat::ZERO);
    let root: NodeRef = t.root();
    for (i, &v) in assign.iter().enumerate() {
        let var = t
            .add_child(
                root,
                Nid(VAR_BASE + 2 * i as u64),
                var_l,
                Rat::from(i as i64 + 1),
            )
            .unwrap();
        t.add_child(
            var,
            Nid(VAR_BASE + 2 * i as u64 + 1),
            val_l,
            Rat::from(v as i64),
        )
        .unwrap();
    }
    for (j, clause) in cnf.clauses.iter().enumerate() {
        let cid = CLAUSE_BASE + 10 * j as u64;
        let c = t.add_child(root, Nid(cid), clause_l, Rat::ZERO).unwrap();
        for (k, &lit) in clause.iter().enumerate() {
            let l = t
                .add_child(c, Nid(cid + 1 + 2 * k as u64), lit_l[k], Rat::from(lit))
                .unwrap();
            let truth = {
                let var = assign[(lit.unsigned_abs() as usize) - 1];
                if lit > 0 {
                    var
                } else {
                    !var
                }
            };
            t.add_child(
                l,
                Nid(cid + 2 + 2 * k as u64),
                val_l,
                Rat::from(truth as i64),
            )
            .unwrap();
        }
    }
    t.add_child(root, Nid(9_000), val_l, Rat::from(root_val as i64))
        .unwrap();
    t
}

impl SatEncoding {
    /// Decides the possible-prefix question of Theorem 3.6 — is
    /// `root—val(=1)` a possible prefix of some tree satisfying the type
    /// and all query-answer pairs? — by scanning the canonical worlds
    /// against the conjunctive tree's PTIME membership test.
    pub fn possible_prefix_val1(&self) -> bool {
        let n = self.formula.num_vars;
        (0..(1u32 << n)).any(|bits| {
            let assign: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
            let w = canonical_world(&self.formula, &self.alpha, &assign, true);
            self.conj.contains(&w)
        })
    }

    /// The Theorem 3.10 emptiness instance: an additional layer pins the
    /// root `val` to 1, making `rep` empty iff the formula is
    /// unsatisfiable. Deciding emptiness of the returned conjunctive
    /// tree is NP-complete.
    pub fn emptiness_instance(&self) -> ConjunctiveTree {
        let mut conj = self.conj.clone();
        let mut alpha = self.alpha.clone();
        // Query root/val[=1] answered nonempty, pinning val=1.
        let mut b = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
        let root = b.root();
        b.child(root, "val", Cond::eq(Rat::ONE)).unwrap();
        let q = b.build();
        // Answer: root + the val node carrying value 1.
        let w = canonical_world(
            &self.formula,
            &self.alpha,
            &vec![false; self.formula.num_vars],
            true,
        );
        let ans = q.eval(&w);
        assert!(!ans.is_empty());
        conj.refine(&self.alpha, &q, &ans).expect("consistent");
        conj
    }

    /// The size of the conjunctive knowledge (polynomial in the formula,
    /// Corollary 3.9).
    pub fn knowledge_size(&self) -> usize {
        self.conj.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sat_cases() -> Vec<(Cnf, bool)> {
        vec![
            // (x1 ∨ x1 ∨ x1): satisfiable.
            (
                Cnf {
                    num_vars: 1,
                    clauses: vec![[1, 1, 1]],
                },
                true,
            ),
            // (x1)(¬x1): unsatisfiable.
            (
                Cnf {
                    num_vars: 1,
                    clauses: vec![[1, 1, 1], [-1, -1, -1]],
                },
                false,
            ),
            // (x1 ∨ ¬x2 ∨ x2): trivially satisfiable.
            (
                Cnf {
                    num_vars: 2,
                    clauses: vec![[1, -2, 2]],
                },
                true,
            ),
            // (x1∨x2)(¬x1∨x2)(x1∨¬x2)(¬x1∨¬x2): unsatisfiable (padded).
            (
                Cnf {
                    num_vars: 2,
                    clauses: vec![[1, 2, 2], [-1, 2, 2], [1, -2, -2], [-1, -2, -2]],
                },
                false,
            ),
            // 3 variables, satisfiable.
            (
                Cnf {
                    num_vars: 3,
                    clauses: vec![[1, -2, 3], [-1, 2, -3], [2, 3, 3]],
                },
                true,
            ),
        ]
    }

    #[test]
    fn brute_force_agrees_with_expectation() {
        for (cnf, expect) in sat_cases() {
            assert_eq!(cnf.brute_force_sat(), expect);
        }
    }

    #[test]
    fn reduction_decides_satisfiability() {
        for (cnf, expect) in sat_cases() {
            let enc = encode(&cnf);
            assert_eq!(
                enc.possible_prefix_val1(),
                expect,
                "reduction disagrees with SAT on {cnf:?}"
            );
        }
    }

    #[test]
    fn canonical_worlds_satisfy_the_type() {
        let (cnf, _) = &sat_cases()[4];
        let enc = encode(cnf);
        for bits in 0..8u32 {
            let assign: Vec<bool> = (0..3).map(|i| bits & (1 << i) != 0).collect();
            for rv in [false, true] {
                let w = canonical_world(cnf, &enc.alpha, &assign, rv);
                assert!(enc.ty.accepts(&w));
            }
        }
    }

    #[test]
    fn knowledge_stays_polynomial() {
        // Corollary 3.9: conjunctive knowledge grows linearly with the
        // number of queries (which is linear in n).
        let sizes: Vec<(usize, usize)> = (1..=4)
            .map(|n| {
                let cnf = Cnf {
                    num_vars: n,
                    clauses: vec![[1, 1, 1]],
                };
                let enc = encode(&cnf);
                (enc.num_queries, enc.knowledge_size())
            })
            .collect();
        // Size per query stays bounded.
        for (q, s) in &sizes {
            assert!(s / q < 300, "size {s} for {q} queries");
        }
        // Growth is roughly linear in n.
        assert!(sizes[3].1 < sizes[0].1 * 8);
    }

    #[test]
    fn emptiness_instance_matches_satisfiability_membershipwise() {
        // The emptiness instance's rep contains a canonical val=1 world
        // iff the formula is satisfiable.
        for (cnf, expect) in sat_cases().into_iter().take(4) {
            let enc = encode(&cnf);
            let inst = enc.emptiness_instance();
            let any = (0..(1u32 << cnf.num_vars)).any(|bits| {
                let assign: Vec<bool> = (0..cnf.num_vars).map(|i| bits & (1 << i) != 0).collect();
                let w = canonical_world(&cnf, &enc.alpha, &assign, true);
                inst.contains(&w)
            });
            assert_eq!(any, expect);
        }
    }
}
