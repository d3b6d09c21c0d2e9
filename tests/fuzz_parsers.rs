//! Robustness fuzzing of every text parser: arbitrary input must yield
//! `Ok` or `Err`, never a panic — and everything that parses must
//! re-serialize and re-parse to the same thing.

use iixml_core::io::{parse_incomplete_xml, write_incomplete_xml};
use iixml_gen::rng::DetRng;
use iixml_gen::testkit::check_with;
use iixml_query::parse::parse_ps_query;
use iixml_tree::xmlio::parse_tree;
use iixml_tree::Alphabet;
use iixml_values::parse::parse_cond;
use iixml_values::Rat;

/// A printable string of length `0..=max_len`: mostly ASCII printable,
/// with occasional multi-byte characters and syntax-significant
/// punctuation to keep the parsers honest.
fn arb_string(rng: &mut DetRng, max_len: usize) -> String {
    let len = rng.range_usize(0, max_len + 1);
    (0..len)
        .map(|_| match rng.below(8) {
            0..=5 => char::from_u32(rng.range_usize(0x20, 0x7f) as u32).unwrap(),
            6 => *rng.choose(&['é', 'λ', '√', '日', '\u{1F333}']),
            _ => *rng.choose(&['<', '>', '"', '/', '{', '}', '[', ']', '=', '!', '&', '|']),
        })
        .collect()
}

/// A string over an explicit character set.
fn string_over(rng: &mut DetRng, charset: &[char], lo: usize, hi: usize) -> String {
    let len = rng.range_usize(lo, hi + 1);
    (0..len).map(|_| *rng.choose(charset)).collect()
}

#[test]
fn cond_parser_never_panics() {
    check_with("cond_parser_never_panics", 300, |rng| {
        let s = arb_string(rng, 40);
        let _ = parse_cond(&s);
    });
}

#[test]
fn rat_parser_never_panics() {
    check_with("rat_parser_never_panics", 300, |rng| {
        let s = arb_string(rng, 20);
        let _ = s.parse::<Rat>();
    });
}

#[test]
fn query_parser_never_panics() {
    check_with("query_parser_never_panics", 300, |rng| {
        let s = arb_string(rng, 60);
        let mut alpha = Alphabet::new();
        let _ = parse_ps_query(&s, &mut alpha);
    });
    // Nesting far past the bound must be refused, not overflow the
    // parser's stack.
    let deep = format!("catalog{}", "/a".repeat(100_000));
    let mut alpha = Alphabet::new();
    assert!(parse_ps_query(&deep, &mut alpha).is_err());
}

#[test]
fn tree_parser_never_panics() {
    check_with("tree_parser_never_panics", 300, |rng| {
        let s = arb_string(rng, 80);
        let mut alpha = Alphabet::new();
        let _ = parse_tree(&s, &mut alpha);
    });
    // Nesting far past the bound must be refused, not overflow the
    // parser's stack.
    let levels = 100_000;
    let mut deep = String::new();
    for i in 0..levels {
        deep.push_str(&format!("<a nid=\"{i}\" val=\"0\">"));
    }
    deep.push_str(&"</a>".repeat(levels));
    let mut alpha = Alphabet::new();
    assert!(parse_tree(&deep, &mut alpha).is_err());
}

#[test]
fn incomplete_parser_never_panics() {
    check_with("incomplete_parser_never_panics", 300, |rng| {
        let s = arb_string(rng, 120);
        let mut alpha = Alphabet::new();
        let _ = parse_incomplete_xml(&s, &mut alpha);
    });
}

/// Structured-ish fuzzing: near-valid condition inputs.
#[test]
fn cond_parser_on_near_valid() {
    check_with("cond_parser_on_near_valid", 300, |rng| {
        let op = string_over(rng, &['=', '<', '>', '!', '&', '|', '(', ')'], 0, 6);
        let n = rng.range_i64(-999, 999);
        let s = format!("{op} {n}");
        if let Ok(c) = parse_cond(&s) {
            // What parses must round-trip through display.
            let again = parse_cond(&c.to_string()).unwrap();
            assert!(c.equivalent(&again));
        }
    });
}

/// Structured-ish fuzzing: near-valid query inputs.
#[test]
fn query_parser_on_near_valid() {
    check_with("query_parser_on_near_valid", 300, |rng| {
        let nparts = rng.range_usize(1, 4);
        let parts: Vec<String> = (0..nparts)
            .map(|_| string_over(rng, &['a', 'b', 'c'], 1, 3))
            .collect();
        let deco = string_over(
            rng,
            &['!', '/', '{', '}', ',', '[', ']', '<', '5', ' '],
            0,
            6,
        );
        let s = format!("{}{}", parts.join("/"), deco);
        let mut alpha = Alphabet::new();
        if let Ok(q) = parse_ps_query(&s, &mut alpha) {
            let text = q.to_text(&alpha);
            let q2 = parse_ps_query(&text, &mut alpha).unwrap();
            assert_eq!(q.len(), q2.len());
        }
    });
}

#[test]
fn incomplete_xml_rejects_mutations_gracefully() {
    // Take a valid document and corrupt it in many positions: each
    // variant must parse or fail cleanly.
    let (it, alpha) = {
        use iixml_core::{ConditionalTreeType, Disjunction, IncompleteTree, SAtom, SymTarget};
        use iixml_tree::{Label, Mult, Nid};
        use iixml_values::IntervalSet;
        let alpha = Alphabet::from_names(["root", "a"]);
        let mut nodes = std::collections::BTreeMap::new();
        nodes.insert(
            Nid(0),
            iixml_core::NodeInfo {
                label: Label(0),
                value: Rat::ZERO,
            },
        );
        let mut ty = ConditionalTreeType::new();
        let r = ty.add_symbol(SymTarget::Node(Nid(0)), IntervalSet::all());
        let a = ty.add_symbol(SymTarget::Lab(Label(1)), IntervalSet::all());
        ty.set_mu(r, Disjunction::single(SAtom::new(vec![(a, Mult::Star)])));
        ty.set_mu(a, Disjunction::leaf());
        ty.add_root(r);
        (IncompleteTree::new(nodes, ty).unwrap(), alpha)
    };
    let xml = write_incomplete_xml(&it, &alpha);
    // Delete each line in turn; truncate at each quarter.
    let lines: Vec<&str> = xml.lines().collect();
    for skip in 0..lines.len() {
        let mutated: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let mut a2 = alpha.clone();
        let _ = parse_incomplete_xml(&mutated, &mut a2);
    }
    for q in 1..4 {
        let cut = xml.len() * q / 4;
        let mut a2 = alpha.clone();
        let _ = parse_incomplete_xml(&xml[..cut], &mut a2);
    }
    // And the original still parses.
    let mut a2 = alpha.clone();
    assert!(parse_incomplete_xml(&xml, &mut a2).is_ok());
}

// ---- durable-store binary formats (journal records, snapshots, WAL) ----

use iixml_store::{Record, Snapshot};

/// Arbitrary bytes, occasionally salted with the store's magic numbers
/// so decoders get past their first gate.
fn arb_bytes(rng: &mut DetRng, max_len: usize) -> Vec<u8> {
    let len = rng.range_usize(0, max_len + 1);
    let mut out: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
    if rng.bool(0.3) {
        // The deref is load-bearing: without it inference picks
        // `T = [u8]`, which is unsized (clippy's auto-deref hint lies).
        #[allow(clippy::explicit_auto_deref)]
        let magic: &[u8] = *rng.choose(&[&b"IIXJWAL"[..], &b"IIXSNAP"[..], &b"REC!"[..]]);
        let fit = magic.len().min(out.len());
        out[..fit].copy_from_slice(&magic[..fit]);
    }
    out
}

/// A random (structurally valid) journal record.
fn arb_record(rng: &mut DetRng) -> Record {
    match rng.below(5) {
        0 => Record::Open {
            alpha: (0..rng.range_usize(0, 4))
                .map(|_| arb_string(rng, 8))
                .collect(),
            initial: arb_string(rng, 40),
        },
        1 => Record::Refine {
            query: arb_string(rng, 30),
            answer_tree: if rng.bool(0.5) {
                Some(arb_string(rng, 40))
            } else {
                None
            },
            provenance: (0..rng.range_usize(0, 4))
                .map(|_| (rng.below(100), rng.bool(0.5), rng.below(50) as u32))
                .collect(),
        },
        2 => Record::SourceUpdate,
        3 => Record::Quarantine,
        _ => Record::SnapshotRef {
            seq: rng.below(1000),
            file: arb_string(rng, 20),
            crc: rng.next_u64() as u32,
        },
    }
}

#[test]
fn journal_record_roundtrips() {
    check_with("journal_record_roundtrips", 300, |rng| {
        let rec = arb_record(rng);
        let decoded = Record::decode(&rec.encode()).expect("own encoding must decode");
        assert_eq!(decoded, rec);
    });
}

#[test]
fn journal_record_decoder_never_panics() {
    check_with("journal_record_decoder_never_panics", 600, |rng| {
        let bytes = if rng.bool(0.5) {
            // Mutated valid encoding: flip one bit somewhere.
            let mut b = arb_record(rng).encode();
            if !b.is_empty() {
                let i = rng.range_usize(0, b.len());
                b[i] ^= 1 << rng.below(8);
            }
            b
        } else {
            arb_bytes(rng, 80)
        };
        // Ok or Err, never a panic (and no unbounded allocation).
        let _ = Record::decode(&bytes);
    });
}

#[test]
fn snapshot_decoder_never_panics() {
    let path = std::path::Path::new("fuzz.snap");
    check_with("snapshot_decoder_never_panics", 600, |rng| {
        let bytes = if rng.bool(0.5) {
            // A well-formed snapshot with one bit flipped.
            let snap = Snapshot {
                seq: rng.below(100),
                alpha: (0..rng.range_usize(0, 3))
                    .map(|_| arb_string(rng, 6))
                    .collect(),
                initial: if rng.bool(0.5) {
                    Some(arb_string(rng, 40))
                } else {
                    None
                },
                knowledge: arb_string(rng, 60),
            };
            let payload_roundtrip = Snapshot::decode(path, &snap_bytes(&snap));
            assert_eq!(payload_roundtrip.expect("own encoding must decode"), snap);
            let mut b = snap_bytes(&snap);
            let i = rng.range_usize(0, b.len());
            b[i] ^= 1 << rng.below(8);
            b
        } else {
            arb_bytes(rng, 120)
        };
        let _ = Snapshot::decode(path, &bytes);
    });
}

/// Snapshot file bytes without touching the filesystem (header + payload,
/// same layout `Snapshot::write` produces).
fn snap_bytes(snap: &Snapshot) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("iixml-fuzz-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (name, _) = snap.write(&dir).unwrap();
    let bytes = std::fs::read(dir.join(name)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn wal_scan_never_panics_on_arbitrary_segments() {
    use iixml_store::wal;
    let dir = std::env::temp_dir().join(format!("iixml-fuzz-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    check_with("wal_scan_never_panics", 300, |rng| {
        // One or two segment files of arbitrary bytes; a valid header
        // is prepended half the time so the scanner reaches the frames.
        let nsegs = rng.range_usize(1, 3);
        for i in 0..nsegs {
            let mut bytes = Vec::new();
            if rng.bool(0.5) {
                bytes.extend_from_slice(b"IIXJWAL\x01");
            }
            bytes.extend_from_slice(&arb_bytes(rng, 200));
            std::fs::write(dir.join(format!("seg-{i:06}.wal")), &bytes).unwrap();
        }
        // Ok with frames, or a typed damage report — never a panic.
        let _ = wal::scan(&dir);
        for (_, p) in wal::Wal::segments(&dir).unwrap() {
            std::fs::remove_file(p).unwrap();
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}
