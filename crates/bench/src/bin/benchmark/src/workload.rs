//! The four workloads: what each client sends, derived from `--seed`
//! before any timing starts, together with the answer every request
//! must get (precomputed with `iixml_gen::catalog` + `parse_ps_query` +
//! `PsQuery::eval`, independently of the server).

use iixml_gen::rng::DetRng;
use iixml_gen::Catalog;
use iixml_query::parse_ps_query;

/// One benchmark workload. Each stresses a different layer; the README
/// explains the choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Static complete knowledge: Ask and Mediate only.
    ReadHeavy,
    /// Knowledge grows at every Fetch; more windows than cache entries.
    RefineHeavy,
    /// Fetch + Sync rounds over short-lived sessions.
    DurableWrite,
    /// Cold starts recovering a journaled fleet.
    Restart,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReadHeavy,
        Workload::RefineHeavy,
        Workload::DurableWrite,
        Workload::Restart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHeavy => "read_heavy",
            Workload::RefineHeavy => "refine_heavy",
            Workload::DurableWrite => "durable_write",
            Workload::Restart => "restart",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The two request kinds behind `op1_*` and `op2_*`.
    pub fn roles(self) -> (Kind, Kind) {
        match self {
            Workload::ReadHeavy => (Kind::Ask, Kind::Mediate),
            Workload::RefineHeavy => (Kind::Fetch, Kind::Revisit),
            Workload::DurableWrite => (Kind::Sync, Kind::Fetch),
            Workload::Restart => (Kind::Ask, Kind::Restart),
        }
    }
}

/// A request kind. `Revisit` is a Fetch of a window the session
/// fetched before; `Restart` is one cold `Server::start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Open,
    Fetch,
    Revisit,
    Ask,
    Mediate,
    Sync,
    Close,
    Restart,
}

impl Kind {
    pub const ALL: [Kind; 8] = [
        Kind::Open,
        Kind::Fetch,
        Kind::Revisit,
        Kind::Ask,
        Kind::Mediate,
        Kind::Sync,
        Kind::Close,
        Kind::Restart,
    ];

    pub fn ix(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Open => "open",
            Kind::Fetch => "fetch",
            Kind::Revisit => "revisit",
            Kind::Ask => "ask",
            Kind::Mediate => "mediate",
            Kind::Sync => "sync",
            Kind::Close => "close",
            Kind::Restart => "restart",
        }
    }
}

/// One request of a session script. `expect` is the answer's node
/// count (Fetch, Revisit, Ask, Mediate); other kinds ignore it.
#[derive(Debug, Clone)]
pub struct Step {
    pub kind: Kind,
    pub query: String,
    pub expect: usize,
}

/// One session's life: the source it opens and the requests it sends
/// after `Open`.
#[derive(Debug, Clone)]
pub struct Script {
    pub products: usize,
    pub cat_seed: u64,
    pub steps: Vec<Step>,
}

/// Everything one client thread sends.
///
/// * `ReadHeavy`/`Restart`: `scripts` are opened (and filled) during
///   set-up and stay open; `reads` are the measured requests, cycled.
/// * `RefineHeavy`/`DurableWrite`: `scripts` is a pool of session lives
///   run back to back (cycled, each life under a fresh session name);
///   `reads` is empty.
#[derive(Debug, Clone)]
pub struct ClientPlan {
    pub tenant: String,
    pub scripts: Vec<Script>,
    pub reads: Vec<(usize, Step)>,
}

/// Size knobs. `full` is what `run` and `trace` measure; `tiny` keeps
/// the tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Per client: open sessions (`ReadHeavy`, `Restart`) or scripts in
    /// the pool (`RefineHeavy`, `DurableWrite`).
    pub sessions: usize,
    pub products: usize,
    /// Distinct windows (`RefineHeavy`, `Restart`) or Fetch+Sync rounds
    /// (`DurableWrite`).
    pub fetches: usize,
    /// `RefineHeavy`: Fetches that revisit an earlier window.
    pub revisits: usize,
    /// Per client: measured requests in `reads` before it cycles.
    pub reads: usize,
    /// Per client: requests the trace replays (`Restart`: cold starts).
    pub trace_ops: usize,
}

impl Sizes {
    pub fn full(w: Workload) -> Sizes {
        match w {
            Workload::ReadHeavy => Sizes {
                sessions: 32,
                products: 32,
                fetches: 0,
                revisits: 0,
                reads: 8192,
                trace_ops: 10_000,
            },
            // A session is Open + 128 Fetches + Close = 130 requests;
            // the trace stops halfway through its 26th session.
            Workload::RefineHeavy => Sizes {
                sessions: 32,
                products: 64,
                fetches: 96,
                revisits: 32,
                reads: 0,
                trace_ops: 25 * 130 + 65,
            },
            // A session is Open + 16 × (Fetch, Sync) + Close = 34.
            Workload::DurableWrite => Sizes {
                sessions: 64,
                products: 8,
                fetches: 16,
                revisits: 0,
                reads: 0,
                trace_ops: 400 * 34 + 17,
            },
            Workload::Restart => Sizes {
                sessions: 64,
                products: 64,
                fetches: 40,
                revisits: 0,
                reads: 64 * 8,
                trace_ops: 4,
            },
        }
    }

    #[cfg(test)]
    pub fn tiny(w: Workload) -> Sizes {
        match w {
            Workload::ReadHeavy => Sizes {
                sessions: 3,
                products: 6,
                fetches: 0,
                revisits: 0,
                reads: 40,
                trace_ops: 50,
            },
            // Past two snapshots (records 32 and 64, so compaction runs)
            // and past the 64-entry answer cache.
            Workload::RefineHeavy => Sizes {
                sessions: 2,
                products: 12,
                fetches: 70,
                revisits: 6,
                reads: 0,
                trace_ops: 78 + 39,
            },
            Workload::DurableWrite => Sizes {
                sessions: 3,
                products: 4,
                fetches: 3,
                revisits: 0,
                reads: 0,
                trace_ops: 19,
            },
            // Recovery starts from the snapshot at record 32.
            Workload::Restart => Sizes {
                sessions: 3,
                products: 12,
                fetches: 35,
                revisits: 0,
                reads: 3 * 4,
                trace_ops: 2,
            },
        }
    }
}

/// Clients, one per core of the 2-core reference host; each holds one
/// connection for its own tenant.
pub const CLIENTS: usize = 2;

/// The set-up query of `ReadHeavy`: every product with every field the
/// measured queries test, so Ask is always complete.
pub const FULL_QUERY: &str = "catalog/product{name, price, cat/subcat}";

/// Price windows `[lo, lo + 5)` tile the catalog's price range
/// `[10, 500)`: 98 disjoint windows.
const WINDOW: i64 = 5;
const WINDOWS: usize = 98;

pub fn window_query(k: usize) -> String {
    let lo = 10 + WINDOW * k as i64;
    format!(
        "catalog/product{{name, price[>= {lo} & < {}]}}",
        lo + WINDOW
    )
}

pub fn ask_query(b: i64) -> String {
    format!("catalog/product{{name, price[< {b}]}}")
}

pub fn mediate_query(b: i64) -> String {
    format!("catalog/product{{name, price[< {b}], cat[= 1]/subcat}}")
}

/// Node count of `query`'s answer on the catalog.
pub fn expected_nodes(cat: &Catalog, query: &str) -> usize {
    let mut alpha = cat.alpha.clone();
    let q = parse_ps_query(query, &mut alpha).expect("generated queries parse");
    q.eval(&cat.doc).len()
}

fn step(kind: Kind, query: String, cat: &Catalog) -> Step {
    let expect = match kind {
        Kind::Fetch | Kind::Revisit | Kind::Ask | Kind::Mediate => expected_nodes(cat, &query),
        _ => 0,
    };
    Step {
        kind,
        query,
        expect,
    }
}

fn bare(kind: Kind) -> Step {
    Step {
        kind,
        query: String::new(),
        expect: 0,
    }
}

/// `n` distinct window indices in random order.
fn windows(rng: &mut DetRng, n: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..WINDOWS).collect();
    for i in (1..all.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        all.swap(i, j);
    }
    all.truncate(n.min(WINDOWS));
    all
}

fn script(w: Workload, sizes: &Sizes, rng: &mut DetRng) -> (Script, Catalog) {
    let cat_seed = rng.next_u64();
    let cat = iixml_gen::catalog(sizes.products, cat_seed);
    let mut steps = Vec::new();
    match w {
        Workload::ReadHeavy => {
            steps.push(step(Kind::Fetch, FULL_QUERY.to_string(), &cat));
            steps.push(bare(Kind::Sync));
        }
        Workload::RefineHeavy => {
            let ws = windows(rng, sizes.fetches);
            for &k in &ws {
                steps.push(step(Kind::Fetch, window_query(k), &cat));
            }
            for _ in 0..sizes.revisits {
                let k = ws[rng.below(ws.len() as u64) as usize];
                steps.push(step(Kind::Revisit, window_query(k), &cat));
            }
            steps.push(bare(Kind::Close));
        }
        Workload::DurableWrite => {
            for _ in 0..sizes.fetches {
                let b = rng.range_i64(10, 500);
                steps.push(step(Kind::Fetch, ask_query(b), &cat));
                steps.push(bare(Kind::Sync));
            }
            steps.push(bare(Kind::Close));
        }
        Workload::Restart => {
            for k in windows(rng, sizes.fetches) {
                steps.push(step(Kind::Fetch, window_query(k), &cat));
            }
            steps.push(bare(Kind::Sync));
        }
    }
    let s = Script {
        products: sizes.products,
        cat_seed,
        steps,
    };
    (s, cat)
}

/// The plans of all clients for `seed`.
pub fn plan(w: Workload, sizes: &Sizes, seed: u64) -> Vec<ClientPlan> {
    (0..CLIENTS)
        .map(|c| {
            let mut rng = DetRng::new(seed).fork(c as u64);
            let mut scripts = Vec::with_capacity(sizes.sessions);
            let mut cats = Vec::with_capacity(sizes.sessions);
            for _ in 0..sizes.sessions {
                let (s, cat) = script(w, sizes, &mut rng);
                scripts.push(s);
                cats.push(cat);
            }
            let mut reads = Vec::with_capacity(sizes.reads);
            for i in 0..sizes.reads {
                let read = match w {
                    Workload::ReadHeavy => {
                        let s = rng.below(scripts.len() as u64) as usize;
                        let b = rng.range_i64(10, 500);
                        let st = if rng.below(5) < 4 {
                            step(Kind::Ask, ask_query(b), &cats[s])
                        } else {
                            step(Kind::Mediate, mediate_query(b), &cats[s])
                        };
                        (s, st)
                    }
                    // One Ask per session and cold start, of a window
                    // the session fetched: always a complete answer.
                    Workload::Restart => {
                        let s = i % scripts.len();
                        let fetched = &scripts[s].steps[..sizes.fetches];
                        let k = rng.below(fetched.len() as u64) as usize;
                        (s, step(Kind::Ask, fetched[k].query.clone(), &cats[s]))
                    }
                    _ => break,
                };
                reads.push(read);
            }
            ClientPlan {
                tenant: format!("t{c}"),
                scripts,
                reads,
            }
        })
        .collect()
}

/// Session name of script `i` in its `cycle`-th life.
pub fn session_name(w: Workload, i: usize, cycle: u64) -> String {
    match w {
        Workload::ReadHeavy | Workload::Restart => format!("s{i}"),
        _ => format!("s{i}-{cycle}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_for_a_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let sizes = Sizes::tiny(w);
            let a = format!("{:?}", plan(w, &sizes, 7));
            assert_eq!(a, format!("{:?}", plan(w, &sizes, 7)), "{}", w.name());
            assert_ne!(a, format!("{:?}", plan(w, &sizes, 8)), "{}", w.name());
        }
    }
}
