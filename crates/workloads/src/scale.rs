//! Million-triple scale workloads, shaped like UniProt protein dumps.
//!
//! The pschema-rs exemplars validate real UniProt N-Triples exports; this
//! module generates synthetic dumps with the same shape — one protein
//! entity per `~7` triples: an `rdf:type`, a reviewed flag, a mnemonic, an
//! organism link into a small taxon universe (recurring terms, like real
//! dumps), a sequence literal (high-entropy, never shared), and 1–3
//! `rdfs:seeAlso` database cross-references. Everything is seeded and
//! deterministic, so the same `(entities, seed)` pair reproduces the same
//! bytes on every run — the property the differential parse benchmarks
//! and CI smoke tests rely on.

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shapex_rdf::ntriples;

use crate::Workload;

/// UniProt core vocabulary namespace.
pub const UP: &str = "http://purl.uniprot.org/core/";
/// Protein entity namespace.
pub const UNIPROT: &str = "http://purl.uniprot.org/uniprot/";
/// Taxonomy namespace.
pub const TAXON: &str = "http://purl.uniprot.org/taxonomy/";

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
const RDFS_SEE_ALSO: &str = "http://www.w3.org/2000/01/rdf-schema#seeAlso";
const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";

const AMINO: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
const SPECIES: &[&str] = &["HUMAN", "MOUSE", "YEAST", "ECOLI", "DROME", "ARATH", "RAT"];

/// Average triples emitted per entity (used to size entity counts for a
/// triple target: `entities ≈ triples / TRIPLES_PER_ENTITY`).
pub const TRIPLES_PER_ENTITY: f64 = 7.0;

/// Generates a UniProt-shaped N-Triples document with `entities` protein
/// entities (≈ `7 × entities` triples). Deterministic in `(entities, seed)`.
pub fn uniprot_ntriples(entities: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    // ~330 bytes per entity; pre-size to avoid repeated doubling.
    let mut out = String::with_capacity(entities.saturating_mul(340));
    for i in 0..entities {
        let taxon = rng.gen_range(1..50u32);
        let reviewed = rng.gen_bool(0.3);
        let species = SPECIES[rng.gen_range(0..SPECIES.len())];
        let seq_len = rng.gen_range(12..32usize);
        let refs = rng.gen_range(1..4usize);

        let _ = writeln!(out, "<{UNIPROT}P{i:08}> <{RDF_TYPE}> <{UP}Protein> .");
        let _ = writeln!(
            out,
            "<{UNIPROT}P{i:08}> <{UP}reviewed> \"{reviewed}\"^^<{XSD_BOOLEAN}> ."
        );
        let _ = writeln!(
            out,
            "<{UNIPROT}P{i:08}> <{UP}mnemonic> \"G{i:X}_{species}\" ."
        );
        let _ = writeln!(out, "<{UNIPROT}P{i:08}> <{UP}organism> <{TAXON}{taxon}> .");
        let _ = write!(out, "<{UNIPROT}P{i:08}> <{UP}sequence> \"");
        for _ in 0..seq_len {
            out.push(AMINO[rng.gen_range(0..AMINO.len())] as char);
        }
        out.push_str("\" .\n");
        for r in 0..refs {
            let _ = writeln!(
                out,
                "<{UNIPROT}P{i:08}> <{RDFS_SEE_ALSO}> <http://purl.uniprot.org/embl-cds/C{i:08}.{r}> ."
            );
        }
    }
    out
}

/// The ShExC schema every generated protein conforms to.
pub fn uniprot_schema() -> String {
    format!(
        "PREFIX up: <{UP}>\n\
         PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
         PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n\
         PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
         <Protein> {{\n\
         \x20 rdf:type [up:Protein],\n\
         \x20 up:reviewed xsd:boolean,\n\
         \x20 up:mnemonic xsd:string,\n\
         \x20 up:organism .,\n\
         \x20 up:sequence xsd:string,\n\
         \x20 rdfs:seeAlso .+\n\
         }}"
    )
}

/// **E12** — a complete UniProt-shaped workload: the dump is generated as
/// N-Triples text and parsed through the real ingestion path (one code
/// path for benchmarks, tests, and files on disk), every protein is a
/// focus node, and all of them conform.
pub fn uniprot(entities: usize, seed: u64) -> Workload {
    let nt = uniprot_ntriples(entities, seed);
    let dataset = ntriples::parse(&nt).expect("generated dump is valid N-Triples");
    Workload {
        name: format!("uniprot/n={entities}"),
        schema: uniprot_schema(),
        dataset,
        focus: (0..entities).map(|i| format!("{UNIPROT}P{i:08}")).collect(),
        shape: "Protein".to_string(),
        expected: vec![true; entities],
    }
}

/// Hub-workload namespace.
pub const HUB: &str = "http://example.org/hub/";

/// Generates a *skewed* N-Triples graph: one hub subject carrying
/// `members` outgoing `hub:member` arcs (plus its `rdf:type`), and
/// `members` member entities with a Zipf-distributed `hub:knows` fanout
/// tail — member `i` gets `≈ members / ((i+1)·H(members))` knows-arcs, so
/// a handful of early members are themselves heavy while the long tail is
/// cheap. This is the adversarial shape for static sharding: the shard
/// that draws the hub (and the head of the tail) does nearly all the work
/// unless idle peers steal from it. Deterministic in
/// `(members, seed)`.
pub fn hub_ntriples(members: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::with_capacity(members.saturating_mul(160) + 64 * members);
    let _ = writeln!(out, "<{HUB}hub> <{RDF_TYPE}> <{HUB}Hub> .");
    for i in 0..members {
        let _ = writeln!(out, "<{HUB}hub> <{HUB}member> <{HUB}m{i:06}> .");
    }
    // Harmonic normaliser: sum of the Zipf weights 1/(i+1), so the tail
    // emits ≈ `members` knows-arcs in total.
    let h: f64 = (1..=members).map(|k| 1.0 / k as f64).sum();
    for i in 0..members {
        let _ = writeln!(out, "<{HUB}m{i:06}> <{RDF_TYPE}> <{HUB}Member> .");
        let _ = writeln!(out, "<{HUB}m{i:06}> <{HUB}label> \"member {i}\" .");
        let fan = if members > 1 {
            (members as f64 / ((i + 1) as f64 * h)).round() as usize
        } else {
            0
        };
        for _ in 0..fan {
            let target = rng.gen_range(0..members);
            let _ = writeln!(out, "<{HUB}m{i:06}> <{HUB}knows> <{HUB}m{target:06}> .");
        }
    }
    out
}

/// The schema for [`hub_ntriples`]: checking the hub pulls in every
/// member's verdict through `hub:member @<Member>+`, and the recursive
/// `hub:knows @<Member>*` reference keeps the member checks coinductive —
/// one (hub, Hub) mega-task plus a long tail of small tasks.
pub fn hub_schema() -> String {
    format!(
        "PREFIX hub: <{HUB}>\n\
         PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
         PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
         <Hub> {{\n\
         \x20 rdf:type [hub:Hub],\n\
         \x20 hub:member @<Member>+\n\
         }}\n\
         <Member> {{\n\
         \x20 rdf:type [hub:Member],\n\
         \x20 hub:label xsd:string,\n\
         \x20 hub:knows @<Member>*\n\
         }}"
    )
}

/// **E14** — the hub-fanout workload: every member is a focus node under
/// `<Member>`, and all of them conform (as does the hub under `<Hub>`).
pub fn hub(members: usize, seed: u64) -> Workload {
    let nt = hub_ntriples(members, seed);
    let dataset = ntriples::parse(&nt).expect("generated hub dump is valid N-Triples");
    Workload {
        name: format!("hub/n={members}"),
        schema: hub_schema(),
        dataset,
        focus: (0..members).map(|i| format!("{HUB}m{i:06}")).collect(),
        shape: "Member".to_string(),
        expected: vec![true; members],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(uniprot_ntriples(50, 7), uniprot_ntriples(50, 7));
        assert_ne!(uniprot_ntriples(50, 7), uniprot_ntriples(50, 8));
    }

    #[test]
    fn triple_count_tracks_estimate() {
        let ds = ntriples::parse(&uniprot_ntriples(200, 1)).unwrap();
        let per_entity = ds.graph.len() as f64 / 200.0;
        assert!(
            (TRIPLES_PER_ENTITY - 1.0..=TRIPLES_PER_ENTITY + 1.0).contains(&per_entity),
            "{per_entity} triples/entity"
        );
    }

    #[test]
    fn parallel_parse_of_dump_is_identical() {
        let nt = uniprot_ntriples(300, 3);
        let seq = ntriples::parse(&nt).unwrap();
        let par = ntriples::parse_par_min_chunk(&nt, 4, 1).unwrap();
        assert_eq!(seq.pool.len(), par.pool.len());
        assert_eq!(seq.graph.triples_sorted(), par.graph.triples_sorted());
    }

    #[test]
    fn workload_focus_aligns_with_entities() {
        let w = uniprot(25, 0);
        assert_eq!(w.focus.len(), 25);
        assert_eq!(w.expected.len(), 25);
        assert!(w.dataset.iri(&w.focus[0]).is_some());
        assert!(w.dataset.iri(&w.focus[24]).is_some());
    }

    #[test]
    fn hub_generation_is_deterministic_and_skewed() {
        assert_eq!(hub_ntriples(60, 5), hub_ntriples(60, 5));
        assert_ne!(hub_ntriples(60, 5), hub_ntriples(60, 6));
        let ds = ntriples::parse(&hub_ntriples(100, 1)).unwrap();
        // One hub arc per member, plus 2 triples/member and a Zipf tail of
        // about `members` knows-arcs.
        let len = ds.graph.len();
        assert!(
            (350..=450).contains(&len),
            "expected ~1 + 100 + 200 + ~100 triples, got {len}"
        );
        // The knows fanout is front-loaded: member 0 carries a fat share.
        let nt = hub_ntriples(100, 1);
        let m0_knows = nt
            .lines()
            .filter(|l| l.starts_with(&format!("<{HUB}m000000> <{HUB}knows>")))
            .count();
        assert!(m0_knows >= 10, "Zipf head should be heavy, got {m0_knows}");
    }

    #[test]
    fn hub_workload_parses_and_schema_compiles() {
        let w = hub(40, 2);
        assert_eq!(w.focus.len(), 40);
        assert!(w.dataset.iri(&format!("{HUB}hub")).is_some());
        assert!(w.dataset.iri(&w.focus[39]).is_some());
        // Two shapes, parse-clean. (That every member actually conforms —
        // and that typings are jobs-invariant on this skewed graph — is
        // pinned by the root stats_parallel suite, which can afford the
        // engine dependency.)
        let schema = shapex_shex::shexc::parse(&w.schema).expect("hub schema parses");
        assert_eq!(schema.len(), 2);
    }
}
