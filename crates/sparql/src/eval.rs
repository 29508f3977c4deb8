//! Evaluator for the SPARQL fragment, over a [`Graph`] + [`TermPool`].
//!
//! Semantics follow the SPARQL 1.1 algebra for the covered fragment:
//! group patterns join their elements, FILTERs scope to their group,
//! OPTIONAL is a left join, aggregates without GROUP BY form one implicit
//! group (so `COUNT(*)` over no solutions is 0), and expression errors
//! eliminate the row rather than failing the query.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use shapex_rdf::graph::Graph;
use shapex_rdf::pool::{TermId, TermPool};
use shapex_rdf::term::{Term, TermRef};
use shapex_rdf::xsd::Numeric;

use crate::ast::*;

/// A variable binding: either a term from the graph's pool or a value
/// computed by a projection expression (e.g. a COUNT) that may not exist
/// in the pool.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Binding {
    /// A term from the graph's pool.
    Term(TermId),
    /// A computed value (e.g. a COUNT) not present in the pool.
    Computed(Term),
}

impl Binding {
    /// The bound term, resolved against the pool.
    pub fn term<'a>(&'a self, pool: &'a TermPool) -> TermRef<'a> {
        match self {
            Binding::Term(id) => pool.term(*id),
            Binding::Computed(t) => t.into(),
        }
    }
}

/// A single solution mapping (variable → binding).
pub type Solution = BTreeMap<Box<str>, Binding>;

/// Evaluation errors (static problems; dynamic expression errors just
/// eliminate rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// An aggregate (COUNT) used outside a projection/HAVING context.
    AggregateOutsideProjection,
    /// A constant term in the query that cannot occur in the graph is
    /// fine; this error is for malformed queries only.
    Malformed(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::AggregateOutsideProjection => {
                write!(f, "aggregate used outside projection/HAVING")
            }
            EvalError::Malformed(m) => write!(f, "malformed query: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates an ASK query.
pub fn ask(query: &Query, graph: &Graph, pool: &TermPool) -> Result<bool, EvalError> {
    match query {
        Query::Ask(g) => Ok(!eval_group(g, graph, pool)?.is_empty()),
        Query::Select(_) => Err(EvalError::Malformed("expected ASK query".into())),
    }
}

/// Evaluates a SELECT query into rows of `(projected var → term)`.
/// Unbound projections are absent from the row map.
pub fn select(query: &Query, graph: &Graph, pool: &TermPool) -> Result<Vec<Solution>, EvalError> {
    match query {
        Query::Select(s) => eval_select(s, graph, pool),
        Query::Ask(_) => Err(EvalError::Malformed("expected SELECT query".into())),
    }
}

fn eval_group(
    group: &GroupPattern,
    graph: &Graph,
    pool: &TermPool,
) -> Result<Vec<Solution>, EvalError> {
    let mut rows: Vec<Solution> = vec![Solution::new()];
    let mut filters: Vec<&Expression> = Vec::new();
    for element in &group.elements {
        match element {
            PatternElement::Triple(t) => {
                rows = match_triple(t, graph, pool, rows);
            }
            PatternElement::Filter(e) => filters.push(e),
            PatternElement::Optional(g) => {
                let right = eval_group(g, graph, pool)?;
                rows = left_join(rows, right);
            }
            PatternElement::Union(a, b) => {
                let mut u = eval_group(a, graph, pool)?;
                u.extend(eval_group(b, graph, pool)?);
                rows = join(rows, u);
            }
            PatternElement::SubSelect(s) => {
                let right = eval_select(s, graph, pool)?;
                rows = join(rows, right);
            }
            PatternElement::Group(g) => {
                let right = eval_group(g, graph, pool)?;
                rows = join(rows, right);
            }
        }
        if rows.is_empty() && filters.is_empty() {
            // Keep evaluating only for side-condition-free early exit.
            break;
        }
    }
    if !filters.is_empty() {
        rows.retain(|row| {
            filters.iter().all(|f| {
                matches!(
                    eval_expr(f, row, pool, None),
                    Ok(v) if effective_boolean(&v)
                )
            })
        });
    }
    Ok(rows)
}

fn eval_select(
    s: &SelectQuery,
    graph: &Graph,
    pool: &TermPool,
) -> Result<Vec<Solution>, EvalError> {
    let rows = eval_group(&s.pattern, graph, pool)?;
    let has_aggregate = projection_has_aggregate(&s.projection) || !s.having.is_empty();

    let mut out: Vec<Solution> = Vec::new();
    if !s.group_by.is_empty() || has_aggregate {
        // Group rows: by key when GROUP BY present, else one implicit group.
        let mut groups: BTreeMap<Vec<Option<Binding>>, Vec<Solution>> = BTreeMap::new();
        if s.group_by.is_empty() {
            groups.insert(Vec::new(), rows);
        } else {
            for row in rows {
                let key: Vec<Option<Binding>> = s
                    .group_by
                    .iter()
                    .map(|v| row.get(v.as_str()).cloned())
                    .collect();
                groups.entry(key).or_default().push(row);
            }
        }
        for (key, members) in groups {
            // A representative row exposing the grouped variables.
            let mut rep = Solution::new();
            for (v, t) in s.group_by.iter().zip(key.iter()) {
                if let Some(t) = t {
                    rep.insert(v.as_str().into(), t.clone());
                }
            }
            // Project first so HAVING can reference projection aliases
            // (e.g. `HAVING (?c >= 2)` with `(COUNT(*) AS ?c)`).
            let projected = project(&s.projection, &rep, pool, Some(&members))?;
            let mut visible = rep.clone();
            for (k, v) in &projected {
                visible.insert(k.clone(), v.clone());
            }
            let keep = s.having.iter().all(|h| {
                matches!(
                    eval_expr(h, &visible, pool, Some(&members)),
                    Ok(v) if effective_boolean(&v)
                )
            });
            if !keep {
                continue;
            }
            out.push(projected);
        }
    } else {
        for row in rows {
            out.push(project(&s.projection, &row, pool, None)?);
        }
    }
    if s.distinct {
        out.sort();
        out.dedup();
    }
    Ok(out)
}

fn projection_has_aggregate(p: &Projection) -> bool {
    match p {
        Projection::All => false,
        Projection::Items(items) => items
            .iter()
            .any(|i| matches!(i, ProjectionItem::Bind(e, _) if expr_has_aggregate(e))),
    }
}

fn expr_has_aggregate(e: &Expression) -> bool {
    match e {
        Expression::Count(_) => true,
        Expression::And(a, b)
        | Expression::Or(a, b)
        | Expression::Equal(a, b)
        | Expression::NotEqual(a, b)
        | Expression::Less(a, b)
        | Expression::LessEq(a, b)
        | Expression::Greater(a, b)
        | Expression::GreaterEq(a, b)
        | Expression::Add(a, b)
        | Expression::Subtract(a, b) => expr_has_aggregate(a) || expr_has_aggregate(b),
        Expression::Not(a)
        | Expression::IsLiteral(a)
        | Expression::IsIri(a)
        | Expression::IsBlank(a)
        | Expression::Datatype(a)
        | Expression::Str(a) => expr_has_aggregate(a),
        Expression::Var(_) | Expression::Constant(_) | Expression::Bound(_) => false,
    }
}

fn project(
    projection: &Projection,
    row: &Solution,
    pool: &TermPool,
    group: Option<&[Solution]>,
) -> Result<Solution, EvalError> {
    match projection {
        Projection::All => Ok(row.clone()),
        Projection::Items(items) => {
            let mut out = Solution::new();
            for item in items {
                match item {
                    ProjectionItem::Var(v) => {
                        if let Some(b) = row.get(v.as_str()) {
                            out.insert(v.as_str().into(), b.clone());
                        }
                    }
                    ProjectionItem::Bind(e, v) => {
                        if expr_has_aggregate(e) && group.is_none() {
                            return Err(EvalError::AggregateOutsideProjection);
                        }
                        if let Ok(val) = eval_expr(e, row, pool, group) {
                            // Materialise computed values as terms so they
                            // can join with outer patterns. Numbers become
                            // canonical integer/decimal literals.
                            if let Some(b) = value_to_binding(val, pool) {
                                out.insert(v.as_str().into(), b);
                            }
                        }
                    }
                }
            }
            Ok(out)
        }
    }
}

/// The computed value of an expression.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Term(TermId),
    Const(Term),
    Num(Numeric),
    Bool(bool),
    Str(String),
}

/// A dynamic expression error: the row is eliminated.
struct ExprError;

/// Turns a computed value into a binding, preferring pool terms so that
/// joins with graph-produced bindings compare equal.
fn value_to_binding(v: Value, pool: &TermPool) -> Option<Binding> {
    let term = match v {
        Value::Term(t) => return Some(Binding::Term(t)),
        Value::Const(t) => t,
        Value::Num(n) => numeric_to_term(n),
        Value::Bool(b) => Term::Literal(shapex_rdf::term::Literal::boolean(b)),
        Value::Str(s) => Term::Literal(shapex_rdf::term::Literal::string(s)),
    };
    Some(match pool.get(&term) {
        Some(id) => Binding::Term(id),
        None => Binding::Computed(term),
    })
}

fn numeric_to_term(n: Numeric) -> Term {
    use shapex_rdf::term::Literal;
    match n {
        Numeric::Decimal { unscaled, scale: 0 } => {
            Term::Literal(Literal::typed(unscaled.to_string(), xsd_ns::INTEGER))
        }
        Numeric::Decimal { unscaled, scale } => Term::Literal(Literal::typed(
            format!("{}", unscaled as f64 / 10f64.powi(scale as i32)),
            xsd_ns::DECIMAL,
        )),
        Numeric::Double(d) => Term::Literal(Literal::typed(format!("{d}"), xsd_ns::DOUBLE)),
    }
}

use shapex_rdf::vocab::xsd as xsd_ns;

fn eval_expr(
    e: &Expression,
    row: &Solution,
    pool: &TermPool,
    group: Option<&[Solution]>,
) -> Result<Value, ExprError> {
    match e {
        Expression::Var(v) => match row.get(v.as_str()) {
            Some(Binding::Term(t)) => Ok(Value::Term(*t)),
            Some(Binding::Computed(t)) => Ok(Value::Const(t.clone())),
            None => Err(ExprError),
        },
        Expression::Constant(t) => Ok(Value::Const(t.clone())),
        Expression::Count(var) => {
            let members = group.ok_or(ExprError)?;
            let n = match var {
                None => members.len(),
                Some(v) => members
                    .iter()
                    .filter(|m| m.contains_key(v.as_str()))
                    .count(),
            };
            Ok(Value::Num(Numeric::integer(n as i128)))
        }
        Expression::And(a, b) => {
            let a = effective_boolean(&eval_expr(a, row, pool, group)?);
            if !a {
                return Ok(Value::Bool(false));
            }
            let b = effective_boolean(&eval_expr(b, row, pool, group)?);
            Ok(Value::Bool(b))
        }
        Expression::Or(a, b) => {
            let a = effective_boolean(&eval_expr(a, row, pool, group)?);
            if a {
                return Ok(Value::Bool(true));
            }
            let b = effective_boolean(&eval_expr(b, row, pool, group)?);
            Ok(Value::Bool(b))
        }
        Expression::Not(a) => Ok(Value::Bool(!effective_boolean(&eval_expr(
            a, row, pool, group,
        )?))),
        Expression::Equal(a, b) => compare(a, b, row, pool, group, &[std::cmp::Ordering::Equal]),
        Expression::NotEqual(a, b) => {
            let eq = compare(a, b, row, pool, group, &[std::cmp::Ordering::Equal])?;
            Ok(Value::Bool(!effective_boolean(&eq)))
        }
        Expression::Less(a, b) => compare(a, b, row, pool, group, &[std::cmp::Ordering::Less]),
        Expression::LessEq(a, b) => compare(
            a,
            b,
            row,
            pool,
            group,
            &[std::cmp::Ordering::Less, std::cmp::Ordering::Equal],
        ),
        Expression::Greater(a, b) => {
            compare(a, b, row, pool, group, &[std::cmp::Ordering::Greater])
        }
        Expression::GreaterEq(a, b) => compare(
            a,
            b,
            row,
            pool,
            group,
            &[std::cmp::Ordering::Greater, std::cmp::Ordering::Equal],
        ),
        Expression::Add(a, b) => arith(a, b, row, pool, group, |x, y| x + y),
        Expression::Subtract(a, b) => arith(a, b, row, pool, group, |x, y| x - y),
        Expression::IsLiteral(a) => {
            let v = eval_expr(a, row, pool, group)?;
            let t = term_of(&v, pool).ok_or(ExprError)?;
            Ok(Value::Bool(t.is_literal()))
        }
        Expression::IsIri(a) => {
            let v = eval_expr(a, row, pool, group)?;
            let t = term_of(&v, pool).ok_or(ExprError)?;
            Ok(Value::Bool(t.is_iri()))
        }
        Expression::IsBlank(a) => {
            let v = eval_expr(a, row, pool, group)?;
            let t = term_of(&v, pool).ok_or(ExprError)?;
            Ok(Value::Bool(t.is_blank()))
        }
        Expression::Bound(v) => Ok(Value::Bool(row.contains_key(v.as_str()))),
        Expression::Datatype(a) => {
            let v = eval_expr(a, row, pool, group)?;
            let t = term_of(&v, pool).ok_or(ExprError)?;
            match t.as_literal() {
                Some(l) => Ok(Value::Const(Term::iri(l.datatype()))),
                None => Err(ExprError),
            }
        }
        Expression::Str(a) => {
            let v = eval_expr(a, row, pool, group)?;
            let t = term_of(&v, pool).ok_or(ExprError)?;
            let s = match t {
                TermRef::Iri(iri) => iri.to_string(),
                TermRef::Literal(l) => l.lexical_form().to_string(),
                TermRef::Blank(_) => return Err(ExprError),
            };
            Ok(Value::Str(s))
        }
    }
}

fn term_of<'a>(v: &'a Value, pool: &'a TermPool) -> Option<TermRef<'a>> {
    match v {
        Value::Term(t) => Some(pool.term(*t)),
        Value::Const(t) => Some(t.into()),
        _ => None,
    }
}

fn numeric_of(v: &Value, pool: &TermPool) -> Option<Numeric> {
    match v {
        Value::Num(n) => Some(*n),
        Value::Term(_) | Value::Const(_) => {
            term_of(v, pool)?.as_literal().and_then(Numeric::of_literal)
        }
        _ => None,
    }
}

fn string_of(v: &Value, pool: &TermPool) -> Option<String> {
    match v {
        Value::Str(s) => Some(s.clone()),
        Value::Term(_) | Value::Const(_) => match term_of(v, pool)? {
            TermRef::Literal(l) => Some(l.lexical_form().to_string()),
            TermRef::Iri(iri) => Some(iri.to_string()),
            TermRef::Blank(_) => None,
        },
        _ => None,
    }
}

fn compare(
    a: &Expression,
    b: &Expression,
    row: &Solution,
    pool: &TermPool,
    group: Option<&[Solution]>,
    accept: &[std::cmp::Ordering],
) -> Result<Value, ExprError> {
    let va = eval_expr(a, row, pool, group)?;
    let vb = eval_expr(b, row, pool, group)?;
    // Numeric comparison when both sides are numbers (value semantics).
    if let (Some(na), Some(nb)) = (numeric_of(&va, pool), numeric_of(&vb, pool)) {
        let ord = na.compare(nb).ok_or(ExprError)?;
        return Ok(Value::Bool(accept.contains(&ord)));
    }
    // String comparison: if either side is a computed string, compare the
    // string values of both sides.
    if matches!(va, Value::Str(_)) || matches!(vb, Value::Str(_)) {
        let sa = string_of(&va, pool).ok_or(ExprError)?;
        let sb = string_of(&vb, pool).ok_or(ExprError)?;
        return Ok(Value::Bool(accept.contains(&sa.cmp(&sb))));
    }
    // Fallback: RDF term equality (only = / != meaningful).
    let ta = term_of(&va, pool);
    let tb = term_of(&vb, pool);
    match (ta, tb) {
        (Some(ta), Some(tb)) => {
            if accept == [std::cmp::Ordering::Equal] {
                Ok(Value::Bool(ta == tb))
            } else {
                Err(ExprError)
            }
        }
        _ => {
            // Booleans compare for equality too.
            if let (Value::Bool(x), Value::Bool(y)) = (&va, &vb) {
                if accept == [std::cmp::Ordering::Equal] {
                    return Ok(Value::Bool(x == y));
                }
            }
            Err(ExprError)
        }
    }
}

fn arith(
    a: &Expression,
    b: &Expression,
    row: &Solution,
    pool: &TermPool,
    group: Option<&[Solution]>,
    f: fn(f64, f64) -> f64,
) -> Result<Value, ExprError> {
    let va = eval_expr(a, row, pool, group)?;
    let vb = eval_expr(b, row, pool, group)?;
    let na = numeric_of(&va, pool).ok_or(ExprError)?;
    let nb = numeric_of(&vb, pool).ok_or(ExprError)?;
    // Exact integer fast path.
    if let (
        Numeric::Decimal {
            unscaled: x,
            scale: 0,
        },
        Numeric::Decimal {
            unscaled: y,
            scale: 0,
        },
    ) = (na, nb)
    {
        let r = f(x as f64, y as f64);
        return Ok(Value::Num(Numeric::integer(r as i128)));
    }
    let fa = match na {
        Numeric::Double(d) => d,
        Numeric::Decimal { unscaled, scale } => unscaled as f64 / 10f64.powi(scale as i32),
    };
    let fb = match nb {
        Numeric::Double(d) => d,
        Numeric::Decimal { unscaled, scale } => unscaled as f64 / 10f64.powi(scale as i32),
    };
    Ok(Value::Num(Numeric::Double(f(fa, fb))))
}

fn effective_boolean(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        Value::Num(n) => n
            .compare(Numeric::integer(0))
            .is_some_and(|o| o != std::cmp::Ordering::Equal),
        Value::Str(s) => !s.is_empty(),
        Value::Const(Term::Literal(l)) => match l.datatype() {
            shapex_rdf::vocab::xsd::BOOLEAN => matches!(l.lexical_form(), "true" | "1"),
            _ => !l.lexical_form().is_empty(),
        },
        _ => false,
    }
}

fn match_triple(
    pattern: &TriplePattern,
    graph: &Graph,
    pool: &TermPool,
    rows: Vec<Solution>,
) -> Vec<Solution> {
    let mut out = Vec::new();
    for row in rows {
        // Resolve each position under the current bindings.
        let s = resolve(&pattern.subject, &row, pool);
        let p = resolve(&pattern.predicate, &row, pool);
        let o = resolve(&pattern.object, &row, pool);
        // A constant term absent from the pool matches nothing.
        let to_opt = |r: Resolved| match r {
            Resolved::Known(id) => Some(Some(id)),
            Resolved::Free => Some(None),
            Resolved::Impossible => None,
        };
        let (Some(s), Some(p), Some(o)) = (to_opt(s), to_opt(p), to_opt(o)) else {
            continue;
        };
        // The store picks the right index (subject/object/scan).
        for t in graph.match_pattern(s, p, o) {
            let mut extended = row.clone();
            if !bind(&pattern.subject, t.subject, &mut extended)
                || !bind(&pattern.predicate, t.predicate, &mut extended)
                || !bind(&pattern.object, t.object, &mut extended)
            {
                continue;
            }
            out.push(extended);
        }
    }
    out
}

enum Resolved {
    Known(TermId),
    Free,
    /// Constant not present in the graph's pool: cannot match.
    Impossible,
}

fn resolve(p: &TermPattern, row: &Solution, pool: &TermPool) -> Resolved {
    match p {
        TermPattern::Var(v) => match row.get(v.as_str()) {
            Some(Binding::Term(t)) => Resolved::Known(*t),
            // A computed binding not in the pool can never match a triple.
            Some(Binding::Computed(t)) => match pool.get(t) {
                Some(id) => Resolved::Known(id),
                None => Resolved::Impossible,
            },
            None => Resolved::Free,
        },
        TermPattern::Term(t) => match pool.get(t) {
            Some(id) => Resolved::Known(id),
            None => Resolved::Impossible,
        },
    }
}

/// Binds a variable (no-op for constants); false on conflict.
fn bind(p: &TermPattern, value: TermId, row: &mut Solution) -> bool {
    match p {
        TermPattern::Term(_) => true,
        TermPattern::Var(v) => match row.entry(v.as_str().into()) {
            Entry::Vacant(e) => {
                e.insert(Binding::Term(value));
                true
            }
            Entry::Occupied(e) => *e.get() == Binding::Term(value),
        },
    }
}

fn compatible(a: &Solution, b: &Solution) -> bool {
    a.iter().all(|(k, v)| b.get(k).is_none_or(|w| w == v))
}

fn merge(a: &Solution, b: &Solution) -> Solution {
    let mut out = a.clone();
    for (k, v) in b {
        out.insert(k.clone(), v.clone());
    }
    out
}

fn join(left: Vec<Solution>, right: Vec<Solution>) -> Vec<Solution> {
    let mut out = Vec::new();
    for l in &left {
        for r in &right {
            if compatible(l, r) {
                out.push(merge(l, r));
            }
        }
    }
    out
}

fn left_join(left: Vec<Solution>, right: Vec<Solution>) -> Vec<Solution> {
    let mut out = Vec::new();
    for l in &left {
        let mut any = false;
        for r in &right {
            if compatible(l, r) {
                out.push(merge(l, r));
                any = true;
            }
        }
        if !any {
            out.push(l.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;
    use shapex_rdf::graph::Dataset;
    use shapex_rdf::turtle;

    fn data() -> Dataset {
        turtle::parse(
            r#"
            @prefix : <http://example.org/> .
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            :john foaf:age 23; foaf:name "John"; foaf:knows :bob .
            :bob foaf:age 34; foaf:name "Bob", "Robert" .
            :mary foaf:age 50, 65 .
            "#,
        )
        .unwrap()
    }

    fn run_ask(ds: &Dataset, q: &str) -> bool {
        let q = parser::parse(q).unwrap();
        ask(&q, &ds.graph, &ds.pool).unwrap()
    }

    fn run_select(ds: &Dataset, q: &str) -> Vec<Solution> {
        let q = parser::parse(q).unwrap();
        select(&q, &ds.graph, &ds.pool).unwrap()
    }

    #[test]
    fn ask_existing_and_missing_triples() {
        let ds = data();
        assert!(run_ask(
            &ds,
            "PREFIX : <http://example.org/>\nPREFIX foaf: <http://xmlns.com/foaf/0.1/>\nASK { :john foaf:age 23 }"
        ));
        assert!(!run_ask(
            &ds,
            "PREFIX : <http://example.org/>\nPREFIX foaf: <http://xmlns.com/foaf/0.1/>\nASK { :john foaf:age 99 }"
        ));
    }

    #[test]
    fn select_with_variables() {
        let ds = data();
        let rows = run_select(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\nSELECT ?s WHERE { ?s foaf:name ?n }",
        );
        // john once, bob twice (two names).
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn distinct_dedups() {
        let ds = data();
        let rows = run_select(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\nSELECT DISTINCT ?s WHERE { ?s foaf:name ?n }",
        );
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn count_group_by_having() {
        let ds = data();
        let rows = run_select(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?s (COUNT(*) AS ?c) WHERE { ?s foaf:age ?o } GROUP BY ?s HAVING (?c >= 2)",
        );
        // Only mary has two ages.
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn count_star_over_empty_is_zero() {
        let ds = data();
        assert!(run_ask(
            &ds,
            "PREFIX : <http://example.org/>\n\
             ASK { { SELECT (COUNT(*) AS ?c) WHERE { :john <http://nope/p> ?o } } FILTER(?c = 0) }"
        ));
    }

    #[test]
    fn subselect_count_join_filter() {
        let ds = data();
        // john has exactly 1 age triple.
        assert!(run_ask(
            &ds,
            "PREFIX : <http://example.org/>\nPREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             ASK { { SELECT (COUNT(*) AS ?c) WHERE { :john foaf:age ?o } } FILTER(?c = 1) }"
        ));
        // mary has 2.
        assert!(!run_ask(
            &ds,
            "PREFIX : <http://example.org/>\nPREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             ASK { { SELECT (COUNT(*) AS ?c) WHERE { :mary foaf:age ?o } } FILTER(?c = 1) }"
        ));
    }

    #[test]
    fn filters_on_datatype() {
        let ds = data();
        assert!(run_ask(
            &ds,
            "PREFIX : <http://example.org/>\nPREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
             ASK { :john foaf:age ?o . FILTER(isLiteral(?o) && datatype(?o) = xsd:integer) }"
        ));
        assert!(!run_ask(
            &ds,
            "PREFIX : <http://example.org/>\nPREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
             ASK { :john foaf:name ?o . FILTER(datatype(?o) = xsd:integer) }"
        ));
    }

    #[test]
    fn numeric_value_comparison() {
        let ds = data();
        assert!(run_ask(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\nASK { ?s foaf:age ?o . FILTER(?o > 60) }"
        ));
        assert!(!run_ask(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\nASK { ?s foaf:age ?o . FILTER(?o > 65) }"
        ));
    }

    #[test]
    fn optional_and_bound() {
        let ds = data();
        // mary has no name; !bound detects it.
        let rows = run_select(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?s WHERE { ?s foaf:age ?a . OPTIONAL { ?s foaf:name ?n } FILTER(!bound(?n)) }",
        );
        // mary appears once per age triple (2 solutions before projection).
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| {
            r.get("s")
                .unwrap()
                .term(&ds.pool)
                .to_string()
                .contains("mary")
        }));
    }

    #[test]
    fn union_branches() {
        let ds = data();
        let rows = run_select(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT DISTINCT ?s WHERE { { ?s foaf:name ?x } UNION { ?s foaf:knows ?x } }",
        );
        assert_eq!(rows.len(), 2); // john, bob
    }

    #[test]
    fn arithmetic_filter() {
        let ds = data();
        assert!(run_ask(
            &ds,
            "PREFIX : <http://example.org/>\nPREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             ASK { { SELECT (COUNT(*) AS ?c1) WHERE { :bob foaf:name ?o } }\n\
                   { SELECT (COUNT(*) AS ?c2) WHERE { :bob foaf:age ?o } }\n\
                   FILTER(?c1 + ?c2 = 3) }"
        ));
    }

    #[test]
    fn join_on_shared_vars() {
        let ds = data();
        let rows = run_select(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?s ?friend WHERE { ?s foaf:knows ?friend . ?friend foaf:age ?a }",
        );
        assert_eq!(rows.len(), 1); // john knows bob, bob has one age
    }

    #[test]
    fn constant_not_in_pool_matches_nothing() {
        let ds = data();
        assert!(!run_ask(&ds, "ASK { <http://nowhere/x> ?p ?o }"));
    }

    #[test]
    fn str_function() {
        let ds = data();
        assert!(run_ask(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\nASK { ?s foaf:name ?n . FILTER(str(?n) = \"John\") }"
        ));
    }

    #[test]
    fn filter_error_eliminates_row_not_query() {
        let ds = data();
        // datatype() on an IRI errors → that row is dropped, others stay.
        let rows = run_select(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT ?o WHERE { ?s foaf:knows ?o . FILTER(datatype(?o) = foaf:whatever) }",
        );
        assert!(rows.is_empty());
        // But rows with literals evaluate normally alongside.
        let rows = run_select(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n\
             SELECT ?o WHERE { ?s ?p ?o . FILTER(datatype(?o) = xsd:integer) }",
        );
        assert_eq!(rows.len(), 4); // ages: 23, 34, 50, 65
    }

    #[test]
    fn count_var_skips_unbound() {
        let ds = data();
        // OPTIONAL name: mary contributes rows without ?n; COUNT(?n)
        // counts only bound occurrences, COUNT(*) counts all rows.
        let rows = run_select(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT (COUNT(?n) AS ?named) (COUNT(*) AS ?all) WHERE {\n\
               ?s foaf:age ?a . OPTIONAL { ?s foaf:name ?n } }",
        );
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        let named = row.get("named").unwrap().term(&ds.pool).to_string();
        let all = row.get("all").unwrap().term(&ds.pool).to_string();
        // john(1 name × 1 age) + bob(2 names × 1 age) = 3 named rows;
        // mary adds 2 unnamed age rows → 5 total.
        assert!(named.contains("\"3\""), "{named}");
        assert!(all.contains("\"5\""), "{all}");
    }

    #[test]
    fn union_inside_optional() {
        let ds = data();
        let rows = run_select(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT DISTINCT ?s WHERE { ?s foaf:age ?a .\n\
               OPTIONAL { { ?s foaf:name ?x } UNION { ?s foaf:knows ?x } } }",
        );
        // All three subjects survive (OPTIONAL keeps mary).
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn implicit_group_with_having_only() {
        let ds = data();
        // HAVING over the single implicit group.
        let rows = run_select(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT (COUNT(*) AS ?c) WHERE { ?s foaf:age ?o } HAVING (?c > 3)",
        );
        assert_eq!(rows.len(), 1); // 4 age triples > 3
        let rows = run_select(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT (COUNT(*) AS ?c) WHERE { ?s foaf:age ?o } HAVING (?c > 10)",
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn computed_binding_joins_with_graph_term() {
        let ds = data();
        // ?c = 2 (bob's names) materialises as an integer literal that can
        // be compared against graph values.
        assert!(run_ask(
            &ds,
            "PREFIX : <http://example.org/>\nPREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             ASK { { SELECT (COUNT(*) AS ?c) WHERE { :bob foaf:name ?n } } FILTER(?c = 2) }"
        ));
    }

    #[test]
    fn distinct_applies_after_projection() {
        let ds = data();
        let rows = run_select(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             SELECT DISTINCT ?a WHERE { ?s foaf:age ?a . ?s foaf:name ?n }",
        );
        // john 23 (1 name) + bob 34 (2 names, deduped) = 2 distinct ages.
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn bnode_str_errors_out() {
        let mut ds = turtle::parse("@prefix e: <http://e/> . _:b e:p 1 .").unwrap();
        let _ = &mut ds;
        let q = parser::parse("ASK { ?s ?p ?o . FILTER(str(?s) = \"b\") }").unwrap();
        // str() on a blank node is an error → row eliminated → false.
        assert!(!ask(&q, &ds.graph, &ds.pool).unwrap());
    }

    #[test]
    fn nested_groups_join() {
        let ds = data();
        assert!(run_ask(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             ASK { { ?s foaf:knows ?o } { ?o foaf:age ?a } FILTER(?a = 34) }"
        ));
        assert!(!run_ask(
            &ds,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             ASK { { ?s foaf:knows ?o } { ?o foaf:age ?a } FILTER(?a = 23) }"
        ));
    }
}
