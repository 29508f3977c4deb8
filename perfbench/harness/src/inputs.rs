//! Seeded benchmark inputs.
//!
//! Every input is a pure function of the workload name, the seed and the
//! size, so two runs with the same seed see byte-identical inputs. The
//! reference verdicts the gates compare against come from the workload
//! generators' own ground truth (`Workload::expected`, which the
//! `person_network` generator computes by its own fixpoint loop) or from
//! [`gfp`] below, never from the engine under test.

use std::fs;
use std::path::Path;

use shapex_rdf::graph::Dataset;
use shapex_rdf::vocab::{foaf, rdf, xsd};
use shapex_rdf::writer::to_ntriples;
use shapex_workloads::{person_network, scale, shacl_person_records, Topology};

/// Namespace prefix of every generated person IRI (`…person<i>`).
pub const PERSON_PREFIX: &str = "http://shapex.example/person";
/// Namespace prefix of every generated protein IRI (`…P<i:08>`).
pub const PROTEIN_PREFIX: &str = "http://purl.uniprot.org/uniprot/P";

/// Default input sizes, tuned so a run holds enough repetitions for
/// steady medians on a small machine.
pub const CLI_UNIPROT_ENTITIES: usize = 30_000;
/// People in the `cli-recursive` graph.
pub const CLI_RECURSIVE_PEOPLE: usize = 30_000;
/// People in each ShEx entry of `serve-mixed`. Every warm `/load` sends
/// the entry's data again, and the server's JSON body parse grows
/// quadratically with body size, so the entry is kept small.
pub const SERVE_PEOPLE: usize = 600;
/// Records in the SHACL entry of `serve-mixed`.
pub const SERVE_SHACL_RECORDS: usize = 1_000;

/// `cli-recursive` proves one person in this many by coinduction; the
/// rest fail by propagation. Proving an all-valid strongly connected
/// group costs the engine superlinear time and memory in its size, so the
/// share is kept small.
pub const RECURSIVE_VALID_SHARE: usize = 16;

/// Out-degree of the random `knows` graph.
pub const PERSON_DEGREE: usize = 3;
/// Share of people generated without a name (locally invalid).
pub const PERSON_INVALID: f64 = 0.02;
/// Associations per `/map` request.
pub const MAP_SIZE: usize = 16;
/// Distinct rounds scripted per connection; a longer run cycles them.
pub const SCRIPT_ROUNDS: usize = 256;

/// SplitMix64: a tiny seeded generator for the request script, so the
/// script does not depend on any generator inside the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Writes the input files of a CLI workload into `dir`: `schema.shex`,
/// `data.nt` and `expected.json` (the reference verdicts).
pub fn write_cli(workload: &str, seed: u64, size: usize, dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let (schema, data, shape, prefix, verdicts) = match workload {
        "cli-uniprot" => {
            let nt = scale::uniprot_ntriples(size, seed);
            // The generator's contract: every protein conforms.
            (
                scale::uniprot_schema(),
                nt,
                "Protein",
                PROTEIN_PREFIX,
                vec![true; size],
            )
        }
        "cli-recursive" => {
            let net = network(
                size - size / RECURSIVE_VALID_SHARE,
                size / RECURSIVE_VALID_SHARE,
                seed,
            )?;
            (net.schema, net.nt, "Person", PERSON_PREFIX, net.expected)
        }
        other => return Err(format!("no CLI inputs for workload '{other}'")),
    };
    let triples = data.bytes().filter(|&b| b == b'\n').count();
    let verdicts: String = verdicts
        .iter()
        .map(|&v| if v { '1' } else { '0' })
        .collect();
    let expected = serde_json::json!({
        "shape": shape,
        "node_prefix": prefix,
        "nodes": size,
        "triples": triples,
        "verdicts": verdicts,
    });
    let write = |name: &str, text: &str| {
        fs::write(dir.join(name), text).map_err(|e| format!("writing {name}: {e}"))
    };
    write("schema.shex", &schema)?;
    write("data.nt", &data)?;
    write(
        "expected.json",
        &serde_json::to_string(&expected).expect("plain JSON"),
    )
}

/// The greatest fixpoint of `valid(i) = local(i) ∧ ∀(i→j). valid(j)` over
/// the `knows` edges: the benchmark's own reference for graphs the
/// generator never saw (the states between a delta and its revert).
pub fn gfp(local: &[bool], edges: &[(usize, usize)]) -> Vec<bool> {
    let mut preds = vec![Vec::new(); local.len()];
    for &(i, j) in edges {
        preds[j].push(i);
    }
    let mut valid = local.to_vec();
    let mut work: Vec<usize> = (0..local.len()).filter(|&i| !valid[i]).collect();
    while let Some(j) = work.pop() {
        for &i in &preds[j] {
            if valid[i] {
                valid[i] = false;
                work.push(i);
            }
        }
    }
    valid
}

/// Index of a person IRI (without angle brackets), if it is one.
pub fn person_index(iri: &str) -> Option<usize> {
    iri.strip_prefix(PERSON_PREFIX)?.parse().ok()
}

fn person_iri(i: usize) -> String {
    format!("<{PERSON_PREFIX}{i}>")
}

/// One scripted round of one connection: a one-triple delta that flips
/// whether person `flipped` has a name, checked while applied and after
/// its revert.
pub struct Round {
    pub apply: String,
    pub revert: String,
    pub flipped: usize,
    /// `Person` verdicts while the delta is applied.
    pub applied: Vec<bool>,
    /// Shape-map request sent while the delta is applied, and its nodes.
    pub map_applied: (String, Vec<usize>),
    /// Shape-map request sent after the revert, and its nodes.
    pub map_reverted: (String, Vec<usize>),
}

/// Everything the `serve-mixed` workload sends and the verdicts it must
/// get back.
pub struct ServeScenario {
    /// Turtle text of each ShEx entry's data.
    pub shex_ttl: String,
    /// The two schemas `/load` alternates between; they differ in `Named`.
    pub schemas: [String; 2],
    /// Whether each person has a name (the `Named` verdict).
    pub local: Vec<bool>,
    /// The generator's `Person` verdicts.
    pub expected: Vec<bool>,
    pub shacl_shapes: String,
    pub shacl_ttl: String,
    pub shacl_expected: Vec<bool>,
    /// Per connection, the scripted rounds.
    pub scripts: Vec<Vec<Round>>,
}

/// A recursive person graph of two parts, each a `person_network` with
/// `Random { degree: 3 }` topology: in the first, [`PERSON_INVALID`] of
/// the people have no name, and failure propagates over `knows` to
/// nearly everyone; the second has no invalid person, so every `Person`
/// verdict there is proven coinductively. The second part's people are
/// numbered after the first's.
pub struct Network {
    pub schema: String,
    /// N-Triples text, lines sorted.
    pub nt: String,
    /// Whether each person has a name.
    pub local: Vec<bool>,
    pub edges: Vec<(usize, usize)>,
    /// The generators' `Person` verdicts.
    pub expected: Vec<bool>,
    /// People of the all-valid part: `valid_from..`.
    pub valid_from: usize,
}

pub fn network(failing: usize, valid: usize, seed: u64) -> Result<Network, String> {
    let people = failing + valid;
    let mut net = Network {
        schema: String::new(),
        nt: String::new(),
        local: Vec::with_capacity(people),
        edges: Vec::new(),
        expected: Vec::with_capacity(people),
        valid_from: failing,
    };
    let mut lines = Vec::new();
    for (n, invalid, offset) in [(failing, PERSON_INVALID, 0), (valid, 0.0, failing)] {
        let topology = Topology::Random {
            degree: PERSON_DEGREE,
        };
        let w = person_network(n, topology, invalid, seed.wrapping_add(offset as u64));
        let (local, edges) = person_facts(&w.dataset, n)?;
        net.local.extend(local);
        net.edges
            .extend(edges.into_iter().map(|(i, j)| (i + offset, j + offset)));
        net.expected.extend(w.expected);
        lines.extend(shifted_lines(&w.dataset, offset));
        net.schema = w.schema;
    }
    if gfp(&net.local, &net.edges) != net.expected {
        return Err("the reference fixpoint disagrees with the generator's ground truth".into());
    }
    lines.sort_unstable();
    net.nt = lines.concat();
    Ok(net)
}

/// N-Triples lines of `ds` with every person renumbered `+ offset`.
fn shifted_lines(ds: &Dataset, offset: usize) -> Vec<String> {
    let term = |id| {
        let text = ds.pool.term(id).to_string();
        match text
            .strip_prefix('<')
            .and_then(|t| t.strip_suffix('>'))
            .and_then(person_index)
        {
            Some(i) => format!("<{PERSON_PREFIX}{}>", i + offset),
            None => text,
        }
    };
    ds.graph
        .triples()
        .map(|t| {
            format!(
                "{} {} {} .\n",
                term(t.subject),
                term(t.predicate),
                term(t.object)
            )
        })
        .collect()
}

/// Builds the `serve-mixed` scenario for `connections` connections.
pub fn serve_scenario(
    seed: u64,
    people: usize,
    records: usize,
    connections: usize,
    rounds: usize,
) -> Result<ServeScenario, String> {
    let net = network(people / 2, people - people / 2, seed)?;
    let person_shape =
        "<Person> { foaf:age xsd:integer, foaf:name xsd:string+, foaf:knows @<Person>* }";
    let header = format!(
        "PREFIX foaf: <{}>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n{person_shape}\n",
        foaf::NS
    );
    let schemas = [
        format!(
            "{header}<Named> {{ foaf:age xsd:integer, foaf:name xsd:string+, foaf:knows .* }}\n"
        ),
        format!("{header}<Named> {{ foaf:age ., foaf:name xsd:string+, foaf:knows .* }}\n"),
    ];
    let shacl = shacl_person_records(records, seed);
    let mut scripts = Vec::with_capacity(connections);
    for c in 0..connections {
        let mut rng = Rng::new(seed ^ (0xA076_1D64_78BD_642F_u64.wrapping_mul(c as u64 + 1)));
        let mut script = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            // Always a named person of the all-valid part: every delta
            // then breaks (and its revert restores) a fixpoint of the
            // same size, so delta latencies form one population.
            let k = net.valid_from + rng.below(people - net.valid_from);
            let line = format!(
                "{} <{}> \"Person {}\" .\n",
                person_iri(k),
                foaf::NAME,
                k - net.valid_from
            );
            let mut flipped_local = net.local.clone();
            flipped_local[k] = false;
            let applied = gfp(&flipped_local, &net.edges);
            let map_applied = shape_map(&mut rng, &applied);
            let map_reverted = shape_map(&mut rng, &net.expected);
            script.push(Round {
                apply: format!("- {line}"),
                revert: format!("+ {line}"),
                flipped: k,
                applied,
                map_applied,
                map_reverted,
            });
        }
        scripts.push(script);
    }
    Ok(ServeScenario {
        shex_ttl: turtle(&net.nt),
        schemas,
        local: net.local,
        expected: net.expected,
        shacl_shapes: shacl.shapes,
        shacl_ttl: turtle(&to_ntriples(&shacl.dataset.graph, &shacl.dataset.pool)),
        shacl_expected: shacl.expected,
        scripts,
    })
}

/// Namespaces [`turtle`] abbreviates.
const PREFIXES: [(&str, &str); 4] = [
    ("e", "http://shapex.example/"),
    ("foaf", foaf::NS),
    ("rdf", rdf::NS),
    ("xsd", xsd::NS),
];

/// An IRI (`<…>`), or a literal's datatype IRI, as a prefixed name when
/// one of [`PREFIXES`] covers it with a plain local name.
fn abbreviate(term: &str) -> String {
    if let Some((lexical, datatype)) = term.rsplit_once("^^") {
        return format!("{lexical}^^{}", abbreviate(datatype));
    }
    let Some(iri) = term.strip_prefix('<').and_then(|t| t.strip_suffix('>')) else {
        return term.to_string();
    };
    for (prefix, ns) in PREFIXES {
        if let Some(local) = iri.strip_prefix(ns) {
            if !local.is_empty()
                && local
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_')
            {
                return format!("{prefix}:{local}");
            }
        }
    }
    term.to_string()
}

/// Rewrites sorted N-Triples as Turtle with prefixed names, one subject
/// block per subject. Request bodies carry this form: it is about a
/// third the size of the N-Triples.
fn turtle(nt: &str) -> String {
    let mut out: String = PREFIXES
        .iter()
        .map(|(prefix, ns)| format!("@prefix {prefix}: <{ns}> .\n"))
        .collect();
    let mut current = "";
    for line in nt.lines() {
        let mut parts = line.splitn(3, ' ');
        let (Some(s), Some(p), Some(rest)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        let o = rest.strip_suffix(" .").unwrap_or(rest);
        if s == current {
            out.push_str(" ;\n   ");
        } else {
            if !current.is_empty() {
                out.push_str(" .\n");
            }
            out.push_str(&abbreviate(s));
            current = s;
        }
        out.push(' ');
        out.push_str(&abbreviate(p));
        out.push(' ');
        out.push_str(&abbreviate(o));
    }
    if !current.is_empty() {
        out.push_str(" .\n");
    }
    out
}

/// A `/map` body of [`MAP_SIZE`] random people, each expected to get
/// the verdict `verdicts` gives it.
fn shape_map(rng: &mut Rng, verdicts: &[bool]) -> (String, Vec<usize>) {
    let nodes: Vec<usize> = (0..MAP_SIZE).map(|_| rng.below(verdicts.len())).collect();
    let text = nodes
        .iter()
        .map(|&i| {
            format!(
                "{}@{}<Person>",
                person_iri(i),
                if verdicts[i] { "" } else { "!" }
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    (text, nodes)
}

/// Whether each person has a name, and the `knows` edges.
type PersonFacts = (Vec<bool>, Vec<(usize, usize)>);

/// Reads back, from the generated graph itself, who has a name and who
/// knows whom.
fn person_facts(ds: &Dataset, people: usize) -> Result<PersonFacts, String> {
    let mut local = vec![false; people];
    let mut edges = Vec::new();
    let index = |id| {
        let text = ds.pool.term(id).to_string();
        let iri = text.trim_start_matches('<').trim_end_matches('>');
        person_index(iri).ok_or_else(|| format!("unexpected node {text}"))
    };
    for t in ds.graph.triples() {
        let predicate = ds.pool.term(t.predicate).to_string();
        if predicate == format!("<{}>", foaf::NAME) {
            local[index(t.subject)?] = true;
        } else if predicate == format!("<{}>", foaf::KNOWS) {
            edges.push((index(t.subject)?, index(t.object)?));
        }
    }
    Ok((local, edges))
}
