//! ShExJ — the JSON interchange form of schemas.
//!
//! Real ShEx tooling (shex.js, PyShEx, shex-scala — the implementations
//! around the paper) exchanges schemas as JSON. This module maps our
//! Regular Shape Expression AST to a ShExJ-style document and back:
//!
//! ```json
//! {
//!   "type": "Schema",
//!   "start": "Person",
//!   "shapes": [
//!     { "type": "Shape", "id": "Person", "expression": {
//!         "type": "EachOf", "expressions": [
//!           { "type": "TripleConstraint",
//!             "predicate": "http://xmlns.com/foaf/0.1/age",
//!             "valueExpr": { "type": "NodeConstraint",
//!                            "datatype": "http://www.w3.org/2001/XMLSchema#integer" } },
//!           ...
//!         ] } }
//!   ]
//! }
//! ```
//!
//! Cardinalities ride on the constrained expression as `min` / `max`
//! (`-1` = unbounded), as in ShExJ. Constructs specific to the paper
//! (`∅`, explicit `ε`, the `NOT` extension) use `"type"` values of
//! `"Empty"`, `"Epsilon"`, and `"Not"`.
//!
//! Round-trip guarantee: `to_json` output is canonical — cardinality
//! sugar normalises (`{0,∞}` → `*` etc.), so
//! `to_json(from_json(to_json(s))) == to_json(s)` (property-tested).

use serde_json::{json, Map, Value};

use crate::ast::{ArcConstraint, ObjectConstraint, PredicateSet, ShapeExpr, ShapeLabel};
use crate::constraint::{Facet, NodeConstraint, NodeKind, ValueSetValue};
use crate::schema::{Schema, SchemaError};
use shapex_rdf::term::{Literal, Term};
use shapex_rdf::xsd::Numeric;

/// Errors when reading a ShExJ document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShexjError {
    /// The input is not syntactically valid JSON.
    Json(String),
    /// The JSON does not follow the expected ShExJ structure.
    Structure(String),
    /// The decoded schema is ill-formed (duplicate labels, dangling refs).
    Schema(String),
}

impl std::fmt::Display for ShexjError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShexjError::Json(m) => write!(f, "invalid JSON: {m}"),
            ShexjError::Structure(m) => write!(f, "invalid ShExJ: {m}"),
            ShexjError::Schema(m) => write!(f, "invalid schema: {m}"),
        }
    }
}

impl std::error::Error for ShexjError {}

impl From<SchemaError> for ShexjError {
    fn from(e: SchemaError) -> Self {
        ShexjError::Schema(e.to_string())
    }
}

/// Serializes a schema to a ShExJ JSON string (pretty-printed).
pub fn to_json(schema: &Schema) -> String {
    let mut doc = Map::new();
    doc.insert("type".into(), json!("Schema"));
    if let Some(start) = schema.start() {
        doc.insert("start".into(), json!(start.as_str()));
    }
    let shapes: Vec<Value> = schema
        .iter()
        .map(|(label, expr)| {
            json!({
                "type": "Shape",
                "id": label.as_str(),
                "expression": expr_to_json(expr),
            })
        })
        .collect();
    doc.insert("shapes".into(), Value::Array(shapes));
    serde_json::to_string_pretty(&Value::Object(doc)).expect("valid JSON value")
}

/// Parses a ShExJ JSON string into a schema.
pub fn from_json(input: &str) -> Result<Schema, ShexjError> {
    let value: Value = serde_json::from_str(input).map_err(|e| ShexjError::Json(e.to_string()))?;
    let obj = expect_obj(&value, "Schema")?;
    let mut schema = Schema::new();
    if let Some(start) = obj.get("start") {
        let start = start
            .as_str()
            .ok_or_else(|| ShexjError::Structure("start must be a string".into()))?;
        schema.set_start(ShapeLabel::new(start));
    }
    let shapes = obj
        .get("shapes")
        .and_then(Value::as_array)
        .ok_or_else(|| ShexjError::Structure("missing shapes array".into()))?;
    for shape in shapes {
        let shape = expect_obj(shape, "Shape")?;
        let id = shape
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| ShexjError::Structure("shape missing id".into()))?;
        let expr = match shape.get("expression") {
            Some(e) => expr_from_json(e)?,
            None => ShapeExpr::Epsilon,
        };
        schema.add_shape(ShapeLabel::new(id), expr)?;
    }
    schema.check_references()?;
    Ok(schema)
}

fn expect_obj<'a>(v: &'a Value, ty: &str) -> Result<&'a Map<String, Value>, ShexjError> {
    let obj = v
        .as_object()
        .ok_or_else(|| ShexjError::Structure(format!("expected {ty} object")))?;
    match obj.get("type").and_then(Value::as_str) {
        Some(t) if t == ty => Ok(obj),
        Some(t) => Err(ShexjError::Structure(format!(
            "expected type {ty}, found {t}"
        ))),
        None => Err(ShexjError::Structure(format!("{ty} object missing type"))),
    }
}

// ---- expressions ----

fn expr_to_json(expr: &ShapeExpr) -> Value {
    match expr {
        ShapeExpr::Empty => json!({"type": "Empty"}),
        ShapeExpr::Epsilon => json!({"type": "Epsilon"}),
        ShapeExpr::Arc(arc) => arc_to_json(arc),
        ShapeExpr::Star(e) => with_cardinality(expr_to_json(e), 0, -1),
        ShapeExpr::Plus(e) => with_cardinality(expr_to_json(e), 1, -1),
        ShapeExpr::Opt(e) => with_cardinality(expr_to_json(e), 0, 1),
        // `e{1,1}` is `e` — canonicalised so decode(encode(x)) re-encodes
        // identically (the fixpoint property).
        ShapeExpr::Repeat(e, 1, Some(1)) => expr_to_json(e),
        ShapeExpr::Repeat(e, min, max) => {
            with_cardinality(expr_to_json(e), *min as i64, max.map_or(-1, |m| m as i64))
        }
        ShapeExpr::And(_, _) => {
            let mut items = Vec::new();
            flatten(expr, true, &mut items);
            json!({"type": "EachOf", "expressions": items})
        }
        ShapeExpr::Or(_, _) => {
            let mut items = Vec::new();
            flatten(expr, false, &mut items);
            json!({"type": "OneOf", "expressions": items})
        }
    }
}

/// Flattens an And/Or spine into ShExJ's n-ary EachOf/OneOf.
fn flatten(expr: &ShapeExpr, and: bool, out: &mut Vec<Value>) {
    match (expr, and) {
        (ShapeExpr::And(a, b), true) => {
            flatten(a, and, out);
            flatten(b, and, out);
        }
        (ShapeExpr::Or(a, b), false) => {
            flatten(a, and, out);
            flatten(b, and, out);
        }
        _ => out.push(expr_to_json(expr)),
    }
}

/// Attaches `min`/`max` to an expression object; when the object already
/// carries a cardinality (nested, e.g. `(e{2}){3}`), wraps it in a
/// one-element EachOf first, as ShExJ has no double cardinality.
fn with_cardinality(v: Value, min: i64, max: i64) -> Value {
    let mut obj = match v {
        Value::Object(o) if !o.contains_key("min") && !o.contains_key("max") => o,
        other => {
            let mut wrapper = Map::new();
            wrapper.insert("type".into(), json!("EachOf"));
            wrapper.insert("expressions".into(), Value::Array(vec![other]));
            wrapper
        }
    };
    obj.insert("min".into(), json!(min));
    obj.insert("max".into(), json!(max));
    Value::Object(obj)
}

fn arc_to_json(arc: &ArcConstraint) -> Value {
    let mut obj = Map::new();
    obj.insert("type".into(), json!("TripleConstraint"));
    match &arc.predicates {
        PredicateSet::Any => {
            obj.insert("predicateWildcard".into(), json!(true));
        }
        PredicateSet::Iris(iris) if iris.len() == 1 => {
            obj.insert("predicate".into(), json!(&*iris[0]));
        }
        PredicateSet::Iris(iris) => {
            obj.insert(
                "predicates".into(),
                Value::Array(iris.iter().map(|i| json!(&**i)).collect()),
            );
        }
    }
    if arc.inverse {
        obj.insert("inverse".into(), json!(true));
    }
    match &arc.object {
        ObjectConstraint::Ref(l) => {
            obj.insert(
                "valueExpr".into(),
                json!({"type": "ShapeRef", "reference": l.as_str()}),
            );
        }
        ObjectConstraint::Value(NodeConstraint::Any) => {} // omitted = any
        ObjectConstraint::Value(c) => {
            obj.insert("valueExpr".into(), constraint_to_json(c));
        }
    }
    Value::Object(obj)
}

fn expr_from_json(v: &Value) -> Result<ShapeExpr, ShexjError> {
    let obj = v
        .as_object()
        .ok_or_else(|| ShexjError::Structure("expected expression object".into()))?;
    let ty = obj
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| ShexjError::Structure("expression missing type".into()))?;
    let base = match ty {
        "Empty" => ShapeExpr::Empty,
        "Epsilon" => ShapeExpr::Epsilon,
        "TripleConstraint" => arc_from_json(obj)?,
        "EachOf" | "OneOf" => {
            let items = obj
                .get("expressions")
                .and_then(Value::as_array)
                .ok_or_else(|| ShexjError::Structure(format!("{ty} missing expressions")))?;
            let exprs: Result<Vec<_>, _> = items.iter().map(expr_from_json).collect();
            if ty == "EachOf" {
                ShapeExpr::and_all(exprs?)
            } else {
                ShapeExpr::or_all(exprs?)
            }
        }
        other => {
            return Err(ShexjError::Structure(format!(
                "unknown expression type {other}"
            )))
        }
    };
    // Cardinality riding on the object?
    let min = obj.get("min").and_then(Value::as_i64);
    let max = obj.get("max").and_then(Value::as_i64);
    match (min, max) {
        (None, None) => Ok(base),
        (min, max) => {
            let min = min.unwrap_or(1);
            let max = max.unwrap_or(1);
            if min < 0 || (max < -1) || (max != -1 && max < min) {
                return Err(ShexjError::Structure(format!(
                    "invalid cardinality {{{min},{max}}}"
                )));
            }
            Ok(match (min, max) {
                (1, 1) => base,
                (0, -1) => ShapeExpr::star(base),
                (1, -1) => ShapeExpr::plus(base),
                (0, 1) => ShapeExpr::opt(base),
                (m, -1) => ShapeExpr::repeat(base, m as u32, None),
                (m, n) => ShapeExpr::repeat(base, m as u32, Some(n as u32)),
            })
        }
    }
}

fn arc_from_json(obj: &Map<String, Value>) -> Result<ShapeExpr, ShexjError> {
    let predicates = if obj.get("predicateWildcard").and_then(Value::as_bool) == Some(true) {
        PredicateSet::Any
    } else if let Some(p) = obj.get("predicate").and_then(Value::as_str) {
        PredicateSet::one(p)
    } else if let Some(list) = obj.get("predicates").and_then(Value::as_array) {
        let iris: Result<Vec<Box<str>>, _> = list
            .iter()
            .map(|p| {
                p.as_str()
                    .map(Box::from)
                    .ok_or_else(|| ShexjError::Structure("predicate must be a string".into()))
            })
            .collect();
        PredicateSet::Iris(iris?)
    } else {
        return Err(ShexjError::Structure(
            "TripleConstraint missing predicate".into(),
        ));
    };
    let object = match obj.get("valueExpr") {
        None => ObjectConstraint::Value(NodeConstraint::Any),
        Some(v) => {
            let vo = v
                .as_object()
                .ok_or_else(|| ShexjError::Structure("valueExpr must be an object".into()))?;
            match vo.get("type").and_then(Value::as_str) {
                Some("ShapeRef") => {
                    let r = vo.get("reference").and_then(Value::as_str).ok_or_else(|| {
                        ShexjError::Structure("ShapeRef missing reference".into())
                    })?;
                    ObjectConstraint::Ref(ShapeLabel::new(r))
                }
                _ => ObjectConstraint::Value(constraint_from_json(v)?),
            }
        }
    };
    let mut arc = ArcConstraint::new(predicates, object);
    arc.inverse = obj.get("inverse").and_then(Value::as_bool) == Some(true);
    Ok(ShapeExpr::Arc(arc))
}

// ---- node constraints ----

fn constraint_to_json(c: &NodeConstraint) -> Value {
    match c {
        NodeConstraint::Not(inner) => {
            json!({"type": "Not", "shapeExpr": constraint_to_json(inner)})
        }
        _ => {
            let mut obj = Map::new();
            obj.insert("type".into(), json!("NodeConstraint"));
            fill_constraint(c, &mut obj);
            Value::Object(obj)
        }
    }
}

/// Writes one constraint's fields; `AllOf` merges its members into the
/// same NodeConstraint object (ShExJ style: nodeKind + datatype + facets
/// coexist as fields).
fn fill_constraint(c: &NodeConstraint, obj: &mut Map<String, Value>) {
    match c {
        NodeConstraint::Any => {}
        NodeConstraint::Kind(k) => {
            let name = match k {
                NodeKind::Iri => "iri",
                NodeKind::BNode => "bnode",
                NodeKind::Literal => "literal",
                NodeKind::NonLiteral => "nonliteral",
            };
            obj.insert("nodeKind".into(), json!(name));
        }
        NodeConstraint::Datatype(dt) => {
            obj.insert("datatype".into(), json!(&**dt));
        }
        NodeConstraint::ValueSet(vs) => {
            obj.insert(
                "values".into(),
                Value::Array(vs.iter().map(value_to_json).collect()),
            );
        }
        NodeConstraint::Facet(f) => {
            let (key, value) = facet_to_json(f);
            obj.insert(key.into(), value);
        }
        NodeConstraint::AllOf(cs) => {
            for inner in cs {
                fill_constraint(inner, obj);
            }
        }
        NodeConstraint::AnyOf(cs) => {
            // Dialect extension (like "not" below): ShExJ proper spells
            // value disjunction as a ShapeOr of constraints.
            obj.insert(
                "anyOf".into(),
                Value::Array(cs.iter().map(constraint_to_json).collect()),
            );
        }
        NodeConstraint::Not(_) => {
            // handled by constraint_to_json; nested Not inside AllOf keeps
            // its own wrapper object under "not".
            obj.insert("not".into(), constraint_to_json(c));
        }
    }
}

fn facet_to_json(f: &Facet) -> (&'static str, Value) {
    fn num(n: &Numeric) -> Value {
        match n {
            Numeric::Decimal { unscaled, scale: 0 } => json!(*unscaled as i64),
            Numeric::Decimal { unscaled, scale } => {
                json!(*unscaled as f64 / 10f64.powi(*scale as i32))
            }
            Numeric::Double(d) => json!(d),
        }
    }
    match f {
        Facet::MinInclusive(n) => ("mininclusive", num(n)),
        Facet::MinExclusive(n) => ("minexclusive", num(n)),
        Facet::MaxInclusive(n) => ("maxinclusive", num(n)),
        Facet::MaxExclusive(n) => ("maxexclusive", num(n)),
        Facet::Length(n) => ("length", json!(n)),
        Facet::MinLength(n) => ("minlength", json!(n)),
        Facet::MaxLength(n) => ("maxlength", json!(n)),
        Facet::Pattern(p) => ("pattern", json!(&**p)),
    }
}

fn value_to_json(v: &ValueSetValue) -> Value {
    match v {
        ValueSetValue::Term(Term::Iri(iri)) => json!(iri.as_str()),
        ValueSetValue::Term(Term::Literal(l)) => {
            let mut obj = Map::new();
            obj.insert("value".into(), json!(l.lexical_form()));
            if let Some(lang) = l.language() {
                obj.insert("language".into(), json!(lang));
            } else if l.datatype() != shapex_rdf::vocab::xsd::STRING {
                obj.insert("type".into(), json!(l.datatype()));
            }
            Value::Object(obj)
        }
        ValueSetValue::Term(Term::BlankNode(b)) => {
            json!({"type": "BNode", "label": b.label()})
        }
        ValueSetValue::IriStem(s) => json!({"type": "IriStem", "stem": &**s}),
        ValueSetValue::Language(t) => json!({"type": "Language", "languageTag": &**t}),
        ValueSetValue::LanguageStem(t) => {
            json!({"type": "LanguageStem", "stem": &**t})
        }
    }
}

fn constraint_from_json(v: &Value) -> Result<NodeConstraint, ShexjError> {
    let obj = v
        .as_object()
        .ok_or_else(|| ShexjError::Structure("expected constraint object".into()))?;
    if obj.get("type").and_then(Value::as_str) == Some("Not") {
        let inner = obj
            .get("shapeExpr")
            .ok_or_else(|| ShexjError::Structure("Not missing shapeExpr".into()))?;
        return Ok(NodeConstraint::Not(Box::new(constraint_from_json(inner)?)));
    }
    let mut parts: Vec<NodeConstraint> = Vec::new();
    if let Some(kind) = obj.get("nodeKind").and_then(Value::as_str) {
        let k = match kind {
            "iri" => NodeKind::Iri,
            "bnode" => NodeKind::BNode,
            "literal" => NodeKind::Literal,
            "nonliteral" => NodeKind::NonLiteral,
            other => return Err(ShexjError::Structure(format!("unknown nodeKind {other}"))),
        };
        parts.push(NodeConstraint::Kind(k));
    }
    if let Some(dt) = obj.get("datatype").and_then(Value::as_str) {
        parts.push(NodeConstraint::Datatype(dt.into()));
    }
    if let Some(values) = obj.get("values").and_then(Value::as_array) {
        let vs: Result<Vec<_>, _> = values.iter().map(value_from_json).collect();
        parts.push(NodeConstraint::ValueSet(vs?));
    }
    for (key, build) in FACET_KEYS {
        if let Some(raw) = obj.get(*key) {
            parts.push(NodeConstraint::Facet(build(raw)?));
        }
    }
    if let Some(not) = obj.get("not") {
        parts.push(constraint_from_json(not)?);
    }
    if let Some(any) = obj.get("anyOf").and_then(Value::as_array) {
        let members: Result<Vec<_>, _> = any.iter().map(constraint_from_json).collect();
        parts.push(NodeConstraint::AnyOf(members?));
    }
    Ok(match parts.len() {
        0 => NodeConstraint::Any,
        1 => parts.pop().expect("one element"),
        _ => NodeConstraint::AllOf(parts),
    })
}

type FacetBuilder = fn(&Value) -> Result<Facet, ShexjError>;

fn numeric_facet(v: &Value) -> Result<Numeric, ShexjError> {
    if let Some(i) = v.as_i64() {
        return Ok(Numeric::integer(i as i128));
    }
    if let Some(f) = v.as_f64() {
        return Ok(Numeric::Double(f));
    }
    Err(ShexjError::Structure(
        "numeric facet must be a number".into(),
    ))
}

fn usize_facet(v: &Value) -> Result<usize, ShexjError> {
    v.as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| ShexjError::Structure("length facet must be a non-negative integer".into()))
}

const FACET_KEYS: &[(&str, FacetBuilder)] = &[
    ("mininclusive", |v| {
        Ok(Facet::MinInclusive(numeric_facet(v)?))
    }),
    ("minexclusive", |v| {
        Ok(Facet::MinExclusive(numeric_facet(v)?))
    }),
    ("maxinclusive", |v| {
        Ok(Facet::MaxInclusive(numeric_facet(v)?))
    }),
    ("maxexclusive", |v| {
        Ok(Facet::MaxExclusive(numeric_facet(v)?))
    }),
    ("length", |v| Ok(Facet::Length(usize_facet(v)?))),
    ("minlength", |v| Ok(Facet::MinLength(usize_facet(v)?))),
    ("maxlength", |v| Ok(Facet::MaxLength(usize_facet(v)?))),
    ("pattern", |v| {
        v.as_str()
            .map(|s| Facet::Pattern(s.into()))
            .ok_or_else(|| ShexjError::Structure("pattern must be a string".into()))
    }),
];

fn value_from_json(v: &Value) -> Result<ValueSetValue, ShexjError> {
    if let Some(iri) = v.as_str() {
        return Ok(ValueSetValue::Term(Term::iri(iri)));
    }
    let obj = v
        .as_object()
        .ok_or_else(|| ShexjError::Structure("value must be a string or object".into()))?;
    match obj.get("type").and_then(Value::as_str) {
        Some("IriStem") => {
            let stem = obj
                .get("stem")
                .and_then(Value::as_str)
                .ok_or_else(|| ShexjError::Structure("IriStem missing stem".into()))?;
            Ok(ValueSetValue::IriStem(stem.into()))
        }
        Some("Language") => {
            let tag = obj
                .get("languageTag")
                .and_then(Value::as_str)
                .ok_or_else(|| ShexjError::Structure("Language missing languageTag".into()))?;
            Ok(ValueSetValue::Language(tag.into()))
        }
        Some("LanguageStem") => {
            let stem = obj
                .get("stem")
                .and_then(Value::as_str)
                .ok_or_else(|| ShexjError::Structure("LanguageStem missing stem".into()))?;
            Ok(ValueSetValue::LanguageStem(stem.into()))
        }
        Some("BNode") => {
            let label = obj
                .get("label")
                .and_then(Value::as_str)
                .ok_or_else(|| ShexjError::Structure("BNode missing label".into()))?;
            Ok(ValueSetValue::Term(Term::blank(label)))
        }
        _ => {
            // ObjectLiteral: { value, type?, language? }
            let lexical = obj
                .get("value")
                .and_then(Value::as_str)
                .ok_or_else(|| ShexjError::Structure("literal value missing".into()))?;
            if let Some(lang) = obj.get("language").and_then(Value::as_str) {
                return Ok(ValueSetValue::Term(Term::Literal(Literal::lang_string(
                    lexical, lang,
                ))));
            }
            if let Some(dt) = obj.get("type").and_then(Value::as_str) {
                return Ok(ValueSetValue::Term(Term::Literal(Literal::typed(
                    lexical, dt,
                ))));
            }
            Ok(ValueSetValue::Term(Term::Literal(Literal::string(lexical))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shexc;

    const PERSON: &str = r#"
        PREFIX foaf: <http://xmlns.com/foaf/0.1/>
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        start = @<Person>
        <Person> {
          foaf:age xsd:integer
          , foaf:name xsd:string+
          , foaf:knows @<Person>*
        }
    "#;

    #[test]
    fn person_schema_roundtrips() {
        let schema = shexc::parse(PERSON).unwrap();
        let j = to_json(&schema);
        assert!(j.contains("\"type\": \"Schema\""), "{j}");
        assert!(j.contains("TripleConstraint"), "{j}");
        assert!(j.contains("ShapeRef"), "{j}");
        let back = from_json(&j).unwrap();
        assert_eq!(back.start().unwrap().as_str(), "Person");
        // Canonical fixpoint: serialize(parse(serialize(x))) == serialize(x)
        assert_eq!(to_json(&back), j);
        // And the round-tripped schema is structurally identical here
        // (Person uses only canonical cardinalities).
        assert_eq!(schema.get(&"Person".into()), back.get(&"Person".into()));
    }

    #[test]
    fn cardinalities_roundtrip() {
        let schema =
            shexc::parse("PREFIX e: <http://e/>\n<S> { e:a .{2,5}, e:b .{3,}, e:c .?, e:d .{4} }")
                .unwrap();
        let j = to_json(&schema);
        let back = from_json(&j).unwrap();
        assert_eq!(schema.get(&"S".into()), back.get(&"S".into()), "{j}");
    }

    #[test]
    fn nested_cardinality_wraps() {
        let schema = shexc::parse("PREFIX e: <http://e/>\n<S> { (e:a .{2})+ }").unwrap();
        let j = to_json(&schema);
        assert!(j.contains("EachOf"), "{j}");
        let back = from_json(&j).unwrap();
        // Fixpoint, not structural equality (the wrapper normalises).
        assert_eq!(to_json(&back), j);
    }

    #[test]
    fn constraints_roundtrip() {
        let schema = shexc::parse(
            r#"
            PREFIX e: <http://e/>
            PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
            <S> {
              e:v [1 "x" "t"@en <http://e/i> <http://e/stem>~ @fr @de~],
              e:n xsd:integer MININCLUSIVE 0 MAXEXCLUSIVE 150,
              e:k NOT LITERAL,
              e:p PATTERN "[a-z]+",
              e:l LITERAL MINLENGTH 2 MAXLENGTH 10,
              ^e:inv IRI
            }
            "#,
        )
        .unwrap();
        let j = to_json(&schema);
        let back = from_json(&j).unwrap();
        assert_eq!(schema.get(&"S".into()), back.get(&"S".into()), "{j}");
    }

    #[test]
    fn alternatives_roundtrip() {
        let schema =
            shexc::parse("PREFIX e: <http://e/>\n<S> { e:a [1] | e:b [2] | e:c [3] }").unwrap();
        let j = to_json(&schema);
        assert!(j.contains("OneOf"), "{j}");
        let back = from_json(&j).unwrap();
        assert_eq!(schema.get(&"S".into()), back.get(&"S".into()));
    }

    #[test]
    fn empty_shape_roundtrips() {
        let schema = shexc::parse("<S> { }").unwrap();
        let back = from_json(&to_json(&schema)).unwrap();
        assert_eq!(back.get(&"S".into()), Some(&ShapeExpr::Epsilon));
    }

    #[test]
    fn structural_errors() {
        assert!(matches!(from_json("not json"), Err(ShexjError::Json(_))));
        assert!(matches!(
            from_json("{\"type\": \"NotASchema\", \"shapes\": []}"),
            Err(ShexjError::Structure(_))
        ));
        assert!(matches!(
            from_json("{\"type\": \"Schema\"}"),
            Err(ShexjError::Structure(_))
        ));
        // dangling reference
        let bad = r#"{"type":"Schema","shapes":[
            {"type":"Shape","id":"S","expression":
              {"type":"TripleConstraint","predicate":"http://e/p",
               "valueExpr":{"type":"ShapeRef","reference":"Missing"}}}]}"#;
        assert!(matches!(from_json(bad), Err(ShexjError::Schema(_))));
        // invalid cardinality
        let bad = r#"{"type":"Schema","shapes":[
            {"type":"Shape","id":"S","expression":
              {"type":"TripleConstraint","predicate":"http://e/p",
               "min":3,"max":1}}]}"#;
        assert!(matches!(from_json(bad), Err(ShexjError::Structure(_))));
    }

    /// A multi-MiB value-set literal (multi-byte text, quotes, backslashes,
    /// newlines) survives `from_json` intact, and parsing it stays linear.
    #[test]
    fn long_literal_parses() {
        let schema = shexc::parse("PREFIX e: <http://e/>\n<S> { e:v [\"LONG\"] }").unwrap();
        let long = "ünïcode 😀 \"quoted\" back\\slash\n".repeat(1 << 16);
        let escaped = serde_json::to_string(&Value::String(long)).unwrap();
        let j = to_json(&schema).replace("\"LONG\"", &escaped);
        assert!(j.len() > 2 << 20);
        let back = from_json(&j).unwrap();
        assert_eq!(to_json(&back), j);
    }

    #[test]
    fn validation_agrees_after_json_roundtrip() {
        // ShExJ carries no prefix table, so compare the shape bodies
        // (the semantics), not the prefix declarations.
        let schema = shexc::parse(PERSON).unwrap();
        let back = from_json(&to_json(&schema)).unwrap();
        for (label, expr) in schema.iter() {
            assert_eq!(Some(expr), back.get(label));
        }
    }
}
