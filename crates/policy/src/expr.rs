//! Expression language for targets and conditions.
//!
//! A small, total functional language in the style of FACPL (ref \[8\] of the
//! paper): function applications over literals and attribute designators.
//! Evaluation is three-valued — an expression yields a value, or an
//! *error* (missing attribute / type mismatch) which policy evaluation
//! maps to the XACML `Indeterminate` decisions.

use crate::attr::{AttributeId, AttributeValue, Request};
use drams_crypto::codec::{Decode, Encode, Reader, Writer};
use drams_crypto::CryptoError;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Why an expression failed to evaluate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalError {
    /// The request carries no value for the designated attribute.
    MissingAttribute(AttributeId),
    /// An operand had the wrong type for the function.
    TypeMismatch {
        /// The function being applied.
        function: String,
        /// Description of the offending operand.
        detail: String,
    },
    /// Division by zero.
    DivisionByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingAttribute(id) => write!(f, "missing attribute `{id}`"),
            EvalError::TypeMismatch { function, detail } => {
                write!(f, "type mismatch in `{function}`: {detail}")
            }
            EvalError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A value produced by expression evaluation: a single value or a bag.
#[derive(Debug, Clone, PartialEq)]
pub enum Evaluated {
    /// A single attribute value.
    One(AttributeValue),
    /// A bag of values (attribute designators evaluate to bags).
    Bag(Vec<AttributeValue>),
}

/// Borrow-first evaluation result used internally by both the reference
/// interpreter and the compiled engine: literals and request bags are
/// *borrowed*, and owned values are materialised only for computed
/// function results. The public [`Evaluated`] is produced once, at the
/// top of [`Expr::eval`], instead of cloning at every node visit.
#[derive(Debug)]
pub(crate) enum ValueView<'a> {
    /// A single value (borrowed literal or owned function result).
    One(Cow<'a, AttributeValue>),
    /// A bag borrowed straight from the request.
    Bag(&'a [AttributeValue]),
}

impl<'a> ValueView<'a> {
    /// Collapses to a single value: singleton bags auto-coerce.
    pub(crate) fn single(self, function: &str) -> Result<Cow<'a, AttributeValue>, EvalError> {
        match self {
            ValueView::One(v) => Ok(v),
            ValueView::Bag(bag) if bag.len() == 1 => Ok(Cow::Borrowed(&bag[0])),
            ValueView::Bag(bag) => Err(EvalError::TypeMismatch {
                function: function.to_string(),
                detail: format!("expected a single value, got a bag of {}", bag.len()),
            }),
        }
    }

    /// Bag cardinality (single values count as singleton bags).
    fn bag_len(&self) -> usize {
        match self {
            ValueView::One(_) => 1,
            ValueView::Bag(bag) => bag.len(),
        }
    }

    /// Membership test against the bag view (single values are singleton
    /// bags).
    fn contains(&self, needle: &AttributeValue) -> bool {
        match self {
            ValueView::One(v) => v.as_ref() == needle,
            ValueView::Bag(bag) => bag.contains(needle),
        }
    }

    fn into_evaluated(self) -> Evaluated {
        match self {
            ValueView::One(v) => Evaluated::One(v.into_owned()),
            ValueView::Bag(bag) => Evaluated::Bag(bag.to_vec()),
        }
    }
}

/// Built-in function identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Func {
    /// Polymorphic equality (numeric coercion between Int and Double).
    Equal,
    /// Negated equality.
    NotEqual,
    /// Numeric or string `<`.
    Less,
    /// Numeric or string `<=`.
    LessEq,
    /// Numeric or string `>`.
    Greater,
    /// Numeric or string `>=`.
    GreaterEq,
    /// `in(x, bag)` — membership test.
    In,
    /// Logical conjunction (strict three-valued: errors propagate unless a
    /// `false` operand short-circuits them).
    And,
    /// Logical disjunction (dual of [`Func::And`]).
    Or,
    /// Logical negation.
    Not,
    /// Numeric addition.
    Add,
    /// Numeric subtraction.
    Sub,
    /// Numeric multiplication.
    Mul,
    /// Numeric division.
    Div,
    /// String prefix test.
    StartsWith,
    /// Substring test.
    Contains,
    /// Bag size.
    Size,
}

impl Func {
    /// Canonical name used by the parser and pretty-printer.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Func::Equal => "equal",
            Func::NotEqual => "not-equal",
            Func::Less => "less",
            Func::LessEq => "less-eq",
            Func::Greater => "greater",
            Func::GreaterEq => "greater-eq",
            Func::In => "in",
            Func::And => "and",
            Func::Or => "or",
            Func::Not => "not",
            Func::Add => "add",
            Func::Sub => "sub",
            Func::Mul => "mul",
            Func::Div => "div",
            Func::StartsWith => "starts-with",
            Func::Contains => "contains",
            Func::Size => "size",
        }
    }

    /// Looks a function up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Func> {
        Some(match name {
            "equal" => Func::Equal,
            "not-equal" => Func::NotEqual,
            "less" => Func::Less,
            "less-eq" => Func::LessEq,
            "greater" => Func::Greater,
            "greater-eq" => Func::GreaterEq,
            "in" => Func::In,
            "and" => Func::And,
            "or" => Func::Or,
            "not" => Func::Not,
            "add" => Func::Add,
            "sub" => Func::Sub,
            "mul" => Func::Mul,
            "div" => Func::Div,
            "starts-with" => Func::StartsWith,
            "contains" => Func::Contains,
            "size" => Func::Size,
            _ => return None,
        })
    }

    /// All functions (used by generators and the analyser).
    pub const ALL: [Func; 17] = [
        Func::Equal,
        Func::NotEqual,
        Func::Less,
        Func::LessEq,
        Func::Greater,
        Func::GreaterEq,
        Func::In,
        Func::And,
        Func::Or,
        Func::Not,
        Func::Add,
        Func::Sub,
        Func::Mul,
        Func::Div,
        Func::StartsWith,
        Func::Contains,
        Func::Size,
    ];

    fn code(self) -> u8 {
        Func::ALL.iter().position(|f| *f == self).unwrap() as u8
    }

    fn from_code(code: u8) -> Result<Func, CryptoError> {
        Func::ALL
            .get(code as usize)
            .copied()
            .ok_or_else(|| CryptoError::Malformed(format!("function code {code}")))
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A literal value.
    Lit(AttributeValue),
    /// An attribute designator — evaluates to the request's bag.
    Attr(AttributeId),
    /// Function application.
    Apply(Func, Vec<Expr>),
}

impl Expr {
    /// Literal constructor.
    pub fn lit(v: impl Into<AttributeValue>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Attribute designator constructor.
    #[must_use]
    pub fn attr(id: AttributeId) -> Expr {
        Expr::Attr(id)
    }

    /// `equal(a, b)` convenience constructor.
    #[must_use]
    pub fn equal(a: Expr, b: Expr) -> Expr {
        Expr::Apply(Func::Equal, vec![a, b])
    }

    /// `and(...)` convenience constructor.
    #[must_use]
    pub fn and(operands: Vec<Expr>) -> Expr {
        Expr::Apply(Func::And, operands)
    }

    /// `or(...)` convenience constructor.
    #[must_use]
    pub fn or(operands: Vec<Expr>) -> Expr {
        Expr::Apply(Func::Or, operands)
    }

    /// `not(x)` convenience constructor.
    // An associated constructor beside `and`/`or`, not `std::ops::Not`.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(x: Expr) -> Expr {
        Expr::Apply(Func::Not, vec![x])
    }

    /// Evaluates against a request.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] for missing attributes, type mismatches or
    /// division by zero — policy evaluation maps these to `Indeterminate`.
    pub fn eval(&self, request: &Request) -> Result<Evaluated, EvalError> {
        Ok(self.eval_view(request)?.into_evaluated())
    }

    /// Borrow-first evaluation: no literal or bag is cloned on the way
    /// down; owned values exist only for computed function results.
    pub(crate) fn eval_view<'a>(
        &'a self,
        request: &'a Request,
    ) -> Result<ValueView<'a>, EvalError> {
        match self {
            Expr::Lit(v) => Ok(ValueView::One(Cow::Borrowed(v))),
            Expr::Attr(id) => {
                let bag = request.bag_by_id(id);
                if bag.is_empty() {
                    Err(EvalError::MissingAttribute(id.clone()))
                } else {
                    Ok(ValueView::Bag(bag))
                }
            }
            Expr::Apply(func, args) => apply_func(
                *func,
                args.len(),
                &mut |i| args[i].eval_view(request),
                &mut |i| match &args[i] {
                    Expr::Attr(id) => Some(request.bag_by_id(id).len()),
                    _ => None,
                },
            ),
        }
    }

    /// Evaluates and coerces to a boolean (the shape conditions need).
    ///
    /// # Errors
    ///
    /// As [`Expr::eval`], plus a type mismatch when the result is not
    /// boolean.
    pub(crate) fn eval_bool(&self, request: &Request) -> Result<bool, EvalError> {
        bool_result(self.eval_view(request)?)
    }

    /// Structural size (node count) — used by workload generators to
    /// calibrate policy complexity.
    #[must_use]
    pub fn size(&self) -> usize {
        match self {
            Expr::Lit(_) | Expr::Attr(_) => 1,
            Expr::Apply(_, args) => 1 + args.iter().map(Expr::size).sum::<usize>(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Attr(id) => write!(f, "{id}"),
            Expr::Apply(func, args) => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

fn arity_error(func: Func, expected: &str, got: usize) -> EvalError {
    EvalError::TypeMismatch {
        function: func.name().to_string(),
        detail: format!("expected {expected} arguments, got {got}"),
    }
}

/// Coerces an evaluated view to the boolean shape conditions need.
pub(crate) fn bool_result(view: ValueView<'_>) -> Result<bool, EvalError> {
    match view.single("condition")?.as_ref() {
        AttributeValue::Bool(b) => Ok(*b),
        other => Err(EvalError::TypeMismatch {
            function: "condition".to_string(),
            detail: format!("expected bool, got {}", other.type_name()),
        }),
    }
}

/// Applies a built-in function over lazily-evaluated arguments.
///
/// This is the single source of truth for function semantics, shared by
/// the tree-walking reference interpreter and the compiled engine
/// (`crate::compiled`): `eval_arg(i)` evaluates the `i`-th argument on
/// demand, and `attr_bag_len(i)` reports the request bag length when the
/// `i`-th argument is a bare attribute designator (the `size()` special
/// case, which must not error on missing attributes).
pub(crate) fn apply_func<'a, E, L>(
    func: Func,
    argc: usize,
    eval_arg: &mut E,
    attr_bag_len: &mut L,
) -> Result<ValueView<'a>, EvalError>
where
    E: FnMut(usize) -> Result<ValueView<'a>, EvalError>,
    L: FnMut(usize) -> Option<usize>,
{
    use AttributeValue as V;
    let one = |v: V| Ok(ValueView::One(Cow::Owned(v)));
    match func {
        Func::Equal | Func::NotEqual => {
            if argc != 2 {
                return Err(arity_error(func, "2", argc));
            }
            let a = eval_arg(0)?.single(func.name())?;
            let b = eval_arg(1)?.single(func.name())?;
            let eq = a.as_ref() == b.as_ref();
            one(V::Bool(if func == Func::Equal { eq } else { !eq }))
        }
        Func::Less | Func::LessEq | Func::Greater | Func::GreaterEq => {
            if argc != 2 {
                return Err(arity_error(func, "2", argc));
            }
            let a = eval_arg(0)?.single(func.name())?;
            let b = eval_arg(1)?.single(func.name())?;
            let ord = compare(func, a.as_ref(), b.as_ref())?;
            one(V::Bool(ord))
        }
        Func::In => {
            if argc != 2 {
                return Err(arity_error(func, "2", argc));
            }
            let needle = eval_arg(0)?.single(func.name())?;
            let bag = eval_arg(1)?;
            one(V::Bool(bag.contains(needle.as_ref())))
        }
        Func::And | Func::Or => {
            if argc == 0 {
                return Err(arity_error(func, "≥1", 0));
            }
            // Three-valued logic: a dominant operand (false for and, true
            // for or) short-circuits even in the presence of errors in
            // other operands; otherwise errors propagate.
            let dominant = func == Func::Or;
            let mut saw_error: Option<EvalError> = None;
            for i in 0..argc {
                match eval_arg(i).and_then(|v| match v.single(func.name())?.as_ref() {
                    V::Bool(b) => Ok(*b),
                    other => Err(EvalError::TypeMismatch {
                        function: func.name().to_string(),
                        detail: format!("expected bool operand, got {}", other.type_name()),
                    }),
                }) {
                    Ok(b) if b == dominant => return one(V::Bool(dominant)),
                    Ok(_) => {}
                    Err(e) => saw_error = Some(saw_error.unwrap_or(e)),
                }
            }
            match saw_error {
                Some(e) => Err(e),
                None => one(V::Bool(!dominant)),
            }
        }
        Func::Not => {
            if argc != 1 {
                return Err(arity_error(func, "1", argc));
            }
            match eval_arg(0)?.single(func.name())?.as_ref() {
                V::Bool(b) => one(V::Bool(!b)),
                other => Err(EvalError::TypeMismatch {
                    function: "not".to_string(),
                    detail: format!("expected bool, got {}", other.type_name()),
                }),
            }
        }
        Func::Add | Func::Sub | Func::Mul | Func::Div => {
            if argc != 2 {
                return Err(arity_error(func, "2", argc));
            }
            let a = eval_arg(0)?.single(func.name())?;
            let b = eval_arg(1)?.single(func.name())?;
            one(arithmetic(func, a.as_ref(), b.as_ref())?)
        }
        Func::StartsWith | Func::Contains => {
            if argc != 2 {
                return Err(arity_error(func, "2", argc));
            }
            let a = eval_arg(0)?.single(func.name())?;
            let b = eval_arg(1)?.single(func.name())?;
            match (a.as_ref(), b.as_ref()) {
                (V::Str(hay), V::Str(needle)) => {
                    let result = if func == Func::StartsWith {
                        hay.starts_with(needle.as_str())
                    } else {
                        hay.contains(needle.as_str())
                    };
                    one(V::Bool(result))
                }
                _ => Err(EvalError::TypeMismatch {
                    function: func.name().to_string(),
                    detail: format!(
                        "expected strings, got {} and {}",
                        a.type_name(),
                        b.type_name()
                    ),
                }),
            }
        }
        Func::Size => {
            if argc != 1 {
                return Err(arity_error(func, "1", argc));
            }
            // size() of a missing attribute is 0, not an error — this lets
            // policies test for attribute presence.
            let n = match attr_bag_len(0) {
                Some(n) => n,
                None => eval_arg(0)?.bag_len(),
            };
            one(V::Int(n as i64))
        }
    }
}

pub(crate) fn compare(
    func: Func,
    a: &AttributeValue,
    b: &AttributeValue,
) -> Result<bool, EvalError> {
    use std::cmp::Ordering;
    use AttributeValue as V;
    let ord = match (a, b) {
        (V::Str(x), V::Str(y)) => x.cmp(y),
        _ => {
            let (x, y) = match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(EvalError::TypeMismatch {
                        function: func.name().to_string(),
                        detail: format!("cannot compare {} with {}", a.type_name(), b.type_name()),
                    })
                }
            };
            x.partial_cmp(&y).unwrap_or(Ordering::Equal)
        }
    };
    Ok(match func {
        Func::Less => ord == Ordering::Less,
        Func::LessEq => ord != Ordering::Greater,
        Func::Greater => ord == Ordering::Greater,
        Func::GreaterEq => ord != Ordering::Less,
        _ => unreachable!("compare called with non-comparison function"),
    })
}

pub(crate) fn arithmetic(
    func: Func,
    a: &AttributeValue,
    b: &AttributeValue,
) -> Result<AttributeValue, EvalError> {
    use AttributeValue as V;
    // Int op Int stays Int (except division, which promotes); otherwise Double.
    match (a, b) {
        (V::Int(x), V::Int(y)) if func != Func::Div => {
            let r = match func {
                Func::Add => x.wrapping_add(*y),
                Func::Sub => x.wrapping_sub(*y),
                Func::Mul => x.wrapping_mul(*y),
                _ => unreachable!(),
            };
            Ok(V::Int(r))
        }
        _ => {
            let (x, y) = match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(EvalError::TypeMismatch {
                        function: func.name().to_string(),
                        detail: format!(
                            "expected numbers, got {} and {}",
                            a.type_name(),
                            b.type_name()
                        ),
                    })
                }
            };
            if func == Func::Div && y == 0.0 {
                return Err(EvalError::DivisionByZero);
            }
            let r = match func {
                Func::Add => x + y,
                Func::Sub => x - y,
                Func::Mul => x * y,
                Func::Div => x / y,
                _ => unreachable!(),
            };
            Ok(V::Double(r))
        }
    }
}

// ---- canonical encoding ----------------------------------------------------

impl Encode for Expr {
    fn encode(&self, w: &mut Writer) {
        match self {
            Expr::Lit(v) => {
                w.put_u8(0);
                v.encode(w);
            }
            Expr::Attr(id) => {
                w.put_u8(1);
                id.encode(w);
            }
            Expr::Apply(func, args) => {
                w.put_u8(2);
                w.put_u8(func.code());
                w.put_varint(args.len() as u64);
                for a in args {
                    a.encode(w);
                }
            }
        }
    }
}

impl Decode for Expr {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        match r.get_u8()? {
            0 => Ok(Expr::Lit(AttributeValue::decode(r)?)),
            1 => Ok(Expr::Attr(AttributeId::decode(r)?)),
            2 => {
                let func = Func::from_code(r.get_u8()?)?;
                let n = r.get_varint()? as usize;
                if n > r.remaining() {
                    return Err(CryptoError::Malformed("expr arity too large".into()));
                }
                let mut args = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    args.push(Expr::decode(r)?);
                }
                Ok(Expr::Apply(func, args))
            }
            other => Err(CryptoError::Malformed(format!("expr tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Category;
    use drams_crypto::codec::{Decode, Encode};

    fn req() -> Request {
        Request::builder()
            .subject("role", "doctor")
            .subject("dept", "cardio")
            .action("id", "read")
            .environment("hour", 14i64)
            .environment("load", 0.5)
            .build()
    }

    fn attr(cat: Category, name: &str) -> Expr {
        Expr::attr(AttributeId::new(cat, name))
    }

    #[test]
    fn literal_evaluates_to_itself() {
        let e = Expr::lit(42i64);
        assert_eq!(
            e.eval(&req()).unwrap(),
            Evaluated::One(AttributeValue::Int(42))
        );
    }

    #[test]
    fn equal_on_attribute() {
        let e = Expr::equal(attr(Category::Subject, "role"), Expr::lit("doctor"));
        assert!(e.eval_bool(&req()).unwrap());
        let e2 = Expr::equal(attr(Category::Subject, "role"), Expr::lit("nurse"));
        assert!(!e2.eval_bool(&req()).unwrap());
    }

    #[test]
    fn missing_attribute_is_error() {
        let e = Expr::equal(attr(Category::Subject, "ghost"), Expr::lit("x"));
        assert!(matches!(
            e.eval_bool(&req()),
            Err(EvalError::MissingAttribute(_))
        ));
    }

    #[test]
    fn numeric_comparisons() {
        let h = attr(Category::Environment, "hour");
        assert!(Expr::Apply(Func::Less, vec![h.clone(), Expr::lit(18i64)])
            .eval_bool(&req())
            .unwrap());
        assert!(
            Expr::Apply(Func::GreaterEq, vec![h.clone(), Expr::lit(14i64)])
                .eval_bool(&req())
                .unwrap()
        );
        // int vs double coercion
        assert!(Expr::Apply(Func::Greater, vec![h, Expr::lit(13.5)])
            .eval_bool(&req())
            .unwrap());
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        let e = Expr::Apply(Func::Less, vec![Expr::lit("abc"), Expr::lit("abd")]);
        assert!(e.eval_bool(&req()).unwrap());
    }

    #[test]
    fn cross_type_comparison_errors() {
        let e = Expr::Apply(Func::Less, vec![Expr::lit("abc"), Expr::lit(3i64)]);
        assert!(matches!(
            e.eval_bool(&req()),
            Err(EvalError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn in_checks_bag_membership() {
        let e = Expr::Apply(
            Func::In,
            vec![Expr::lit("cardio"), attr(Category::Subject, "dept")],
        );
        assert!(e.eval_bool(&req()).unwrap());
        let e2 = Expr::Apply(
            Func::In,
            vec![Expr::lit("neuro"), attr(Category::Subject, "dept")],
        );
        assert!(!e2.eval_bool(&req()).unwrap());
    }

    #[test]
    fn and_or_short_circuit_over_errors() {
        let missing = Expr::equal(attr(Category::Subject, "ghost"), Expr::lit(1i64));
        // and(false, error) = false
        let e = Expr::and(vec![Expr::lit(false), missing.clone()]);
        assert!(!e.eval_bool(&req()).unwrap());
        // or(true, error) = true
        let e = Expr::or(vec![Expr::lit(true), missing.clone()]);
        assert!(e.eval_bool(&req()).unwrap());
        // and(true, error) = error
        let e = Expr::and(vec![Expr::lit(true), missing.clone()]);
        assert!(e.eval_bool(&req()).is_err());
        // or(false, error) = error
        let e = Expr::or(vec![Expr::lit(false), missing]);
        assert!(e.eval_bool(&req()).is_err());
    }

    #[test]
    fn not_negates() {
        assert!(!Expr::not(Expr::lit(true)).eval_bool(&req()).unwrap());
        assert!(Expr::not(Expr::lit(1i64)).eval_bool(&req()).is_err());
    }

    #[test]
    fn arithmetic_works() {
        let e = Expr::Apply(Func::Add, vec![Expr::lit(2i64), Expr::lit(3i64)]);
        assert_eq!(
            e.eval(&req()).unwrap(),
            Evaluated::One(AttributeValue::Int(5))
        );
        let e = Expr::Apply(Func::Div, vec![Expr::lit(7i64), Expr::lit(2i64)]);
        assert_eq!(
            e.eval(&req()).unwrap(),
            Evaluated::One(AttributeValue::Double(3.5))
        );
        let e = Expr::Apply(Func::Div, vec![Expr::lit(1i64), Expr::lit(0i64)]);
        assert_eq!(e.eval(&req()), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn string_functions() {
        let e = Expr::Apply(
            Func::StartsWith,
            vec![attr(Category::Subject, "dept"), Expr::lit("car")],
        );
        assert!(e.eval_bool(&req()).unwrap());
        let e = Expr::Apply(
            Func::Contains,
            vec![attr(Category::Subject, "dept"), Expr::lit("ardi")],
        );
        assert!(e.eval_bool(&req()).unwrap());
    }

    #[test]
    fn size_handles_missing_gracefully() {
        let e = Expr::Apply(Func::Size, vec![attr(Category::Subject, "ghost")]);
        assert_eq!(
            e.eval(&req()).unwrap(),
            Evaluated::One(AttributeValue::Int(0))
        );
        let e = Expr::Apply(Func::Size, vec![attr(Category::Subject, "role")]);
        assert_eq!(
            e.eval(&req()).unwrap(),
            Evaluated::One(AttributeValue::Int(1))
        );
    }

    #[test]
    fn display_round_trips_conceptually() {
        let e = Expr::and(vec![
            Expr::equal(attr(Category::Subject, "role"), Expr::lit("doctor")),
            Expr::Apply(
                Func::Less,
                vec![attr(Category::Environment, "hour"), Expr::lit(18i64)],
            ),
        ]);
        assert_eq!(
            e.to_string(),
            "and(equal(subject.role, \"doctor\"), less(environment.hour, 18))"
        );
    }

    #[test]
    fn codec_round_trip() {
        let e = Expr::and(vec![
            Expr::equal(attr(Category::Subject, "role"), Expr::lit("doctor")),
            Expr::not(Expr::Apply(
                Func::In,
                vec![Expr::lit("x"), attr(Category::Resource, "tags")],
            )),
            Expr::Apply(Func::Add, vec![Expr::lit(1.5), Expr::lit(2i64)]),
        ]);
        let bytes = e.to_canonical_bytes();
        assert_eq!(Expr::from_canonical_bytes(&bytes).unwrap(), e);
    }

    #[test]
    fn wrong_arity_is_type_error() {
        let e = Expr::Apply(Func::Equal, vec![Expr::lit(1i64)]);
        assert!(matches!(
            e.eval(&req()),
            Err(EvalError::TypeMismatch { .. })
        ));
        let e = Expr::Apply(Func::Not, vec![]);
        assert!(e.eval(&req()).is_err());
    }

    #[test]
    fn size_counts_expression_nodes() {
        let e = Expr::and(vec![Expr::lit(true), Expr::lit(false)]);
        assert_eq!(e.size(), 3);
    }
}
