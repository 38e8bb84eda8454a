//! Text syntax for policies, in the style of FACPL (ref \[8\]).
//!
//! # Grammar
//!
//! ```text
//! policyset  := "policyset" IDENT "{" ALG item* "}"
//! item       := "target" ":" expr
//!             | policyset | policy | obligation
//! policy     := "policy" IDENT "{" ALG pitem* "}"
//! pitem      := "target" ":" expr | rule | obligation
//! rule       := "rule" IDENT "(" ("permit"|"deny") ")" [rulebody]
//! rulebody   := "{" ritem* "}"
//! ritem      := "target" ":" expr | "condition" ":" expr | obligation
//! obligation := "obligation" ("permit"|"deny") IDENT "(" [lit ("," lit)*] ")"
//! expr       := lit | attrref | IDENT "(" [expr ("," expr)*] ")"
//! attrref    := CATEGORY "." IDENT
//! lit        := STRING | NUMBER | "true" | "false"
//! ALG        := "deny-overrides" | "permit-overrides" | "first-applicable"
//!             | "only-one-applicable" | "deny-unless-permit"
//!             | "permit-unless-deny"
//! ```
//!
//! Line comments start with `#`.
//!
//! # Example
//!
//! ```
//! use drams_policy::parser::parse_policy_set;
//!
//! let src = r#"
//! policyset root { deny-overrides
//!   target: equal(resource.type, "record")
//!   policy doctors { permit-overrides
//!     rule allow (permit) {
//!       target: equal(subject.role, "doctor")
//!       condition: less(environment.hour, 18)
//!       obligation permit log("audit")
//!     }
//!     rule fallback (deny)
//!   }
//! }
//! "#;
//! let set = parse_policy_set(src).unwrap();
//! assert_eq!(set.id, "root");
//! ```

use crate::attr::{AttributeId, AttributeValue, Category};
use crate::combining::CombiningAlg;
use crate::decision::{Effect, Obligation};
use crate::expr::{Expr, Func};
use crate::policy::{Policy, PolicyChild, PolicySet};
use crate::rule::Rule;
use crate::target::Target;
use std::fmt;

/// A parse failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    Double(f64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
    Colon,
    Dot,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

fn tokenize(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut col = 1usize;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        let (tline, tcol) = (line, col);
        macro_rules! bump {
            () => {{
                chars.next();
                if c == '\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
            }};
        }
        if c.is_whitespace() {
            bump!();
            continue;
        }
        if c == '#' {
            while let Some(&c2) = chars.peek() {
                let c = c2;
                bump!();
                if c == '\n' {
                    break;
                }
            }
            continue;
        }
        let simple = match c {
            '{' => Some(Tok::LBrace),
            '}' => Some(Tok::RBrace),
            '(' => Some(Tok::LParen),
            ')' => Some(Tok::RParen),
            ',' => Some(Tok::Comma),
            ':' => Some(Tok::Colon),
            '.' => Some(Tok::Dot),
            _ => None,
        };
        if let Some(tok) = simple {
            bump!();
            out.push(Spanned {
                tok,
                line: tline,
                col: tcol,
            });
            continue;
        }
        if c == '"' {
            bump!();
            let mut s = String::new();
            let mut closed = false;
            while let Some(&c2) = chars.peek() {
                let c = c2;
                bump!();
                if c == '"' {
                    closed = true;
                    break;
                }
                if c == '\\' {
                    match chars.peek() {
                        Some(&esc) => {
                            let c = esc;
                            bump!();
                            s.push(match c {
                                'n' => '\n',
                                't' => '\t',
                                other => other,
                            });
                        }
                        None => break,
                    }
                } else {
                    s.push(c);
                }
            }
            if !closed {
                return Err(ParseError {
                    line: tline,
                    col: tcol,
                    message: "unterminated string".into(),
                });
            }
            out.push(Spanned {
                tok: Tok::Str(s),
                line: tline,
                col: tcol,
            });
            continue;
        }
        if c.is_ascii_digit() || c == '-' && out_last_allows_number(&out) {
            let mut s = String::new();
            let mut is_double = false;
            if c == '-' {
                s.push(c);
                bump!();
            }
            while let Some(&c2) = chars.peek() {
                if c2.is_ascii_digit() {
                    let c = c2;
                    s.push(c);
                    bump!();
                } else if c2 == '.' {
                    // lookahead: digit after '.' means a double literal
                    let mut clone = chars.clone();
                    clone.next();
                    if clone.peek().map(|d| d.is_ascii_digit()).unwrap_or(false) {
                        is_double = true;
                        let c = c2;
                        s.push(c);
                        bump!();
                    } else {
                        break;
                    }
                } else {
                    break;
                }
            }
            let tok = if is_double {
                Tok::Double(s.parse().map_err(|e| ParseError {
                    line: tline,
                    col: tcol,
                    message: format!("bad number `{s}`: {e}"),
                })?)
            } else {
                Tok::Int(s.parse().map_err(|e| ParseError {
                    line: tline,
                    col: tcol,
                    message: format!("bad number `{s}`: {e}"),
                })?)
            };
            out.push(Spanned {
                tok,
                line: tline,
                col: tcol,
            });
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let mut s = String::new();
            while let Some(&c2) = chars.peek() {
                if c2.is_ascii_alphanumeric() || c2 == '_' || c2 == '-' {
                    let c = c2;
                    s.push(c);
                    bump!();
                } else {
                    break;
                }
            }
            out.push(Spanned {
                tok: Tok::Ident(s),
                line: tline,
                col: tcol,
            });
            continue;
        }
        return Err(ParseError {
            line: tline,
            col: tcol,
            message: format!("unexpected character `{c}`"),
        });
    }
    Ok(out)
}

/// `-` only starts a number when it cannot be part of an identifier
/// (identifiers may contain `-`, e.g. `deny-overrides`); after an ident we
/// never expect a number directly.
fn out_last_allows_number(out: &[Spanned]) -> bool {
    !matches!(out.last().map(|s| &s.tok), Some(Tok::Ident(_)))
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        let (line, col) = self
            .toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|s| (s.line, s.col))
            .unwrap_or((0, 0));
        Err(ParseError {
            line,
            col,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == tok => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => {
                let t = t.clone();
                self.err(format!("expected {what}, found {t:?}"))
            }
            None => self.err(format!("expected {what}, found end of input")),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => self.err(format!("expected {what}, found {t:?}")),
            None => self.err(format!("expected {what}, found end of input")),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let id = self.expect_ident(&format!("`{kw}`"))?;
        if id == kw {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found `{id}`"))
        }
    }

    fn parse_algorithm(&mut self) -> Result<CombiningAlg, ParseError> {
        let name = self.expect_ident("combining algorithm")?;
        CombiningAlg::by_name(&name)
            .ok_or(())
            .or_else(|_| self.err(format!("unknown combining algorithm `{name}`")))
    }

    fn parse_effect(&mut self) -> Result<Effect, ParseError> {
        let name = self.expect_ident("`permit` or `deny`")?;
        match name.as_str() {
            "permit" => Ok(Effect::Permit),
            "deny" => Ok(Effect::Deny),
            other => self.err(format!("expected `permit` or `deny`, found `{other}`")),
        }
    }

    fn parse_literal(&mut self) -> Result<AttributeValue, ParseError> {
        match self.next() {
            Some(Tok::Str(s)) => Ok(AttributeValue::Str(s)),
            Some(Tok::Int(i)) => Ok(AttributeValue::Int(i)),
            Some(Tok::Double(d)) => Ok(AttributeValue::Double(d)),
            Some(Tok::Ident(id)) if id == "true" => Ok(AttributeValue::Bool(true)),
            Some(Tok::Ident(id)) if id == "false" => Ok(AttributeValue::Bool(false)),
            Some(t) => self.err(format!("expected literal, found {t:?}")),
            None => self.err("expected literal, found end of input"),
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Str(_)) | Some(Tok::Int(_)) | Some(Tok::Double(_)) => {
                Ok(Expr::Lit(self.parse_literal()?))
            }
            Some(Tok::Ident(id)) => {
                if id == "true" || id == "false" {
                    return Ok(Expr::Lit(self.parse_literal()?));
                }
                self.pos += 1;
                match self.peek() {
                    Some(Tok::Dot) => {
                        self.pos += 1;
                        let name = self.expect_ident("attribute name")?;
                        let category = Category::parse(&id)
                            .map_err(|_| ())
                            .or_else(|()| self.err(format!("`{id}` is not a category")))?;
                        Ok(Expr::Attr(AttributeId::new(category, name)))
                    }
                    Some(Tok::LParen) => {
                        let func = Func::by_name(&id)
                            .ok_or(())
                            .or_else(|_| self.err(format!("unknown function `{id}`")))?;
                        self.pos += 1;
                        let mut args = Vec::new();
                        if self.peek() == Some(&Tok::RParen) {
                            self.pos += 1;
                        } else {
                            loop {
                                args.push(self.parse_expr()?);
                                match self.next() {
                                    Some(Tok::Comma) => continue,
                                    Some(Tok::RParen) => break,
                                    Some(t) => {
                                        return self
                                            .err(format!("expected `,` or `)`, found {t:?}"))
                                    }
                                    None => return self.err("unterminated argument list"),
                                }
                            }
                        }
                        Ok(Expr::Apply(func, args))
                    }
                    _ => self.err(format!(
                        "identifier `{id}` must be a function call or `category.name`"
                    )),
                }
            }
            Some(t) => self.err(format!("expected expression, found {t:?}")),
            None => self.err("expected expression, found end of input"),
        }
    }

    fn parse_obligation(&mut self) -> Result<Obligation, ParseError> {
        // caller consumed `obligation`
        let effect = self.parse_effect()?;
        let id = self.expect_ident("obligation id")?;
        self.expect(&Tok::LParen, "`(`")?;
        let mut args = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            self.pos += 1;
        } else {
            loop {
                args.push(self.parse_literal()?);
                match self.next() {
                    Some(Tok::Comma) => continue,
                    Some(Tok::RParen) => break,
                    Some(t) => return self.err(format!("expected `,` or `)`, found {t:?}")),
                    None => return self.err("unterminated obligation arguments"),
                }
            }
        }
        Ok(Obligation {
            id,
            fulfill_on: effect,
            args,
        })
    }

    fn parse_rule(&mut self) -> Result<Rule, ParseError> {
        // caller consumed `rule`
        let id = self.expect_ident("rule id")?;
        self.expect(&Tok::LParen, "`(`")?;
        let effect = self.parse_effect()?;
        self.expect(&Tok::RParen, "`)`")?;
        let mut builder = Rule::builder(id, effect);
        if self.peek() == Some(&Tok::LBrace) {
            self.pos += 1;
            loop {
                match self.peek().cloned() {
                    Some(Tok::RBrace) => {
                        self.pos += 1;
                        break;
                    }
                    Some(Tok::Ident(kw)) => {
                        self.pos += 1;
                        match kw.as_str() {
                            "target" => {
                                self.expect(&Tok::Colon, "`:`")?;
                                builder = builder.target(Target::expr(self.parse_expr()?));
                            }
                            "condition" => {
                                self.expect(&Tok::Colon, "`:`")?;
                                builder = builder.condition(self.parse_expr()?);
                            }
                            "obligation" => {
                                builder = builder.obligation(self.parse_obligation()?);
                            }
                            other => return self.err(format!("unexpected `{other}` in rule body")),
                        }
                    }
                    Some(t) => return self.err(format!("unexpected {t:?} in rule body")),
                    None => return self.err("unterminated rule body"),
                }
            }
        }
        Ok(builder.build())
    }

    fn parse_policy(&mut self) -> Result<Policy, ParseError> {
        // caller consumed `policy`
        let id = self.expect_ident("policy id")?;
        self.expect(&Tok::LBrace, "`{`")?;
        let algorithm = self.parse_algorithm()?;
        let mut builder = Policy::builder(id, algorithm);
        loop {
            match self.peek().cloned() {
                Some(Tok::RBrace) => {
                    self.pos += 1;
                    break;
                }
                Some(Tok::Ident(kw)) => {
                    self.pos += 1;
                    match kw.as_str() {
                        "target" => {
                            self.expect(&Tok::Colon, "`:`")?;
                            builder = builder.target(Target::expr(self.parse_expr()?));
                        }
                        "rule" => builder = builder.rule(self.parse_rule()?),
                        "obligation" => builder = builder.obligation(self.parse_obligation()?),
                        other => return self.err(format!("unexpected `{other}` in policy body")),
                    }
                }
                Some(t) => return self.err(format!("unexpected {t:?} in policy body")),
                None => return self.err("unterminated policy body"),
            }
        }
        Ok(builder.build())
    }

    fn parse_policy_set(&mut self) -> Result<PolicySet, ParseError> {
        self.expect_keyword("policyset")?;
        let id = self.expect_ident("policy set id")?;
        self.expect(&Tok::LBrace, "`{`")?;
        let algorithm = self.parse_algorithm()?;
        let mut builder = PolicySet::builder(id, algorithm);
        loop {
            match self.peek().cloned() {
                Some(Tok::RBrace) => {
                    self.pos += 1;
                    break;
                }
                Some(Tok::Ident(kw)) => match kw.as_str() {
                    "target" => {
                        self.pos += 1;
                        self.expect(&Tok::Colon, "`:`")?;
                        builder = builder.target(Target::expr(self.parse_expr()?));
                    }
                    "policy" => {
                        self.pos += 1;
                        builder = builder.policy(self.parse_policy()?);
                    }
                    "policyset" => {
                        builder = builder.set(self.parse_policy_set()?);
                    }
                    "obligation" => {
                        self.pos += 1;
                        builder = builder.obligation(self.parse_obligation()?);
                    }
                    other => {
                        self.pos += 1;
                        let msg = format!("unexpected `{other}` in policy set body");
                        return self.err(msg);
                    }
                },
                Some(t) => return self.err(format!("unexpected {t:?} in policy set body")),
                None => return self.err("unterminated policy set body"),
            }
        }
        Ok(builder.build())
    }
}

/// Parses a policy set from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] with line/column on any syntax error.
pub fn parse_policy_set(src: &str) -> Result<PolicySet, ParseError> {
    let toks = tokenize(src)?;
    let mut parser = Parser { toks, pos: 0 };
    let set = parser.parse_policy_set()?;
    if parser.pos != parser.toks.len() {
        return parser.err("trailing input after policy set");
    }
    Ok(set)
}

// ---- pretty printer ---------------------------------------------------------

/// Renders a policy set back to parseable source text.
///
/// The rendering is for people, not storage: a target with more than one
/// clause or match prints as one `and`/`or` expression, which parses back
/// to a different tree and so a different version digest. The exact,
/// digest-preserving form is `PolicySet::to_canonical_bytes`.
#[must_use]
pub fn to_source(set: &PolicySet) -> String {
    let mut out = String::new();
    write_set(set, 0, &mut out);
    out
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_set(set: &PolicySet, depth: usize, out: &mut String) {
    indent(depth, out);
    out.push_str(&format!("policyset {} {{ {}\n", set.id, set.algorithm));
    write_target(&set.target, depth + 1, out);
    for child in &set.children {
        match child {
            PolicyChild::Policy(p) => write_policy(p, depth + 1, out),
            PolicyChild::Set(s) => write_set(s, depth + 1, out),
        }
    }
    for o in &set.obligations {
        write_obligation(o, depth + 1, out);
    }
    indent(depth, out);
    out.push_str("}\n");
}

fn write_policy(p: &Policy, depth: usize, out: &mut String) {
    indent(depth, out);
    out.push_str(&format!("policy {} {{ {}\n", p.id, p.algorithm));
    write_target(&p.target, depth + 1, out);
    for r in &p.rules {
        write_rule(r, depth + 1, out);
    }
    for o in &p.obligations {
        write_obligation(o, depth + 1, out);
    }
    indent(depth, out);
    out.push_str("}\n");
}

fn write_rule(r: &Rule, depth: usize, out: &mut String) {
    indent(depth, out);
    let effect = match r.effect {
        Effect::Permit => "permit",
        Effect::Deny => "deny",
    };
    let has_body = r.target != Target::Any || r.condition.is_some() || !r.obligations.is_empty();
    if !has_body {
        out.push_str(&format!("rule {} ({effect})\n", r.id));
        return;
    }
    out.push_str(&format!("rule {} ({effect}) {{\n", r.id));
    write_target(&r.target, depth + 1, out);
    if let Some(c) = &r.condition {
        indent(depth + 1, out);
        out.push_str(&format!("condition: {c}\n"));
    }
    for o in &r.obligations {
        write_obligation(o, depth + 1, out);
    }
    indent(depth, out);
    out.push_str("}\n");
}

fn write_target(t: &Target, depth: usize, out: &mut String) {
    if let Target::Clauses(clauses) = t {
        // The parser only produces single-expression targets; print richer
        // clause structures as an `and` of `or`s so output stays parseable.
        let expr = clauses_to_expr(clauses);
        indent(depth, out);
        out.push_str(&format!("target: {expr}\n"));
    }
}

fn clauses_to_expr(clauses: &[Vec<Vec<Expr>>]) -> Expr {
    let mut ands: Vec<Expr> = Vec::new();
    for any_of in clauses {
        let mut ors: Vec<Expr> = Vec::new();
        for all_of in any_of {
            let conj = if all_of.len() == 1 {
                all_of[0].clone()
            } else {
                Expr::and(all_of.to_vec())
            };
            ors.push(conj);
        }
        ands.push(if ors.len() == 1 {
            ors.remove(0)
        } else {
            Expr::or(ors)
        });
    }
    if ands.len() == 1 {
        ands.remove(0)
    } else {
        Expr::and(ands)
    }
}

fn write_obligation(o: &Obligation, depth: usize, out: &mut String) {
    indent(depth, out);
    let effect = match o.fulfill_on {
        Effect::Permit => "permit",
        Effect::Deny => "deny",
    };
    let args: Vec<String> = o.args.iter().map(|a| a.to_string()).collect();
    out.push_str(&format!(
        "obligation {effect} {}({})\n",
        o.id,
        args.join(", ")
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Request;
    use crate::decision::ExtDecision;

    /// One expression through the grammar `parse_policy_set` uses for
    /// targets and conditions.
    fn parse_expr(src: &str) -> Result<Expr, ParseError> {
        let toks = tokenize(src)?;
        let mut parser = Parser { toks, pos: 0 };
        let e = parser.parse_expr()?;
        if parser.pos != parser.toks.len() {
            return parser.err("trailing input after expression");
        }
        Ok(e)
    }

    const SAMPLE: &str = r#"
# A healthcare data-sharing policy.
policyset root { deny-overrides
  target: equal(resource.type, "record")
  policy doctors { permit-overrides
    rule allow-read (permit) {
      target: equal(subject.role, "doctor")
      condition: and(equal(action.id, "read"), less(environment.hour, 18))
      obligation permit log("audit", 1)
    }
    rule fallback (deny)
  }
  obligation deny alert("security")
}
"#;

    #[test]
    fn parses_sample() {
        let set = parse_policy_set(SAMPLE).unwrap();
        assert_eq!(set.id, "root");
        assert_eq!(set.algorithm, CombiningAlg::DenyOverrides);
        assert_eq!(set.children.len(), 1);
        assert_eq!(set.obligations.len(), 1);
        match &set.children[0] {
            PolicyChild::Policy(p) => {
                assert_eq!(p.id, "doctors");
                assert_eq!(p.rules.len(), 2);
                assert_eq!(p.rules[0].obligations.len(), 1);
            }
            other => panic!("expected policy, got {other:?}"),
        }
    }

    #[test]
    fn parsed_policy_evaluates() {
        let set = parse_policy_set(SAMPLE).unwrap();
        let req = Request::builder()
            .subject("role", "doctor")
            .resource("type", "record")
            .action("id", "read")
            .environment("hour", 9i64)
            .build();
        // allow-read permits inside the permit-overrides policy, so the
        // policy yields Permit; the root combines that single child.
        assert_eq!(set.evaluate(&req).0, ExtDecision::Permit);
        // After hours the permit rule's condition fails, fallback denies.
        let late = Request::builder()
            .subject("role", "doctor")
            .resource("type", "record")
            .action("id", "read")
            .environment("hour", 22i64)
            .build();
        assert_eq!(set.evaluate(&late).0, ExtDecision::Deny);
    }

    #[test]
    fn round_trip_through_pretty_printer() {
        let set = parse_policy_set(SAMPLE).unwrap();
        let src2 = to_source(&set);
        let set2 = parse_policy_set(&src2).unwrap();
        assert_eq!(set, set2);
    }

    #[test]
    fn parse_expr_literals() {
        assert_eq!(parse_expr("42").unwrap(), Expr::lit(42i64));
        assert_eq!(parse_expr("-7").unwrap(), Expr::lit(-7i64));
        assert_eq!(parse_expr("2.5").unwrap(), Expr::lit(2.5));
        assert_eq!(parse_expr("true").unwrap(), Expr::lit(true));
        assert_eq!(parse_expr("\"hi\"").unwrap(), Expr::lit("hi"));
    }

    #[test]
    fn parse_expr_attr_and_nested_calls() {
        let e =
            parse_expr("and(equal(subject.role, \"dr\"), not(in(\"x\", resource.tags)))").unwrap();
        let attr = |c, name| Expr::attr(AttributeId::new(c, name));
        assert_eq!(
            e,
            Expr::and(vec![
                Expr::equal(attr(Category::Subject, "role"), Expr::lit("dr")),
                Expr::not(Expr::Apply(
                    Func::In,
                    vec![Expr::lit("x"), attr(Category::Resource, "tags")]
                )),
            ])
        );
    }

    #[test]
    fn error_has_position() {
        let err = parse_policy_set("policyset x { bogus-alg }").unwrap_err();
        assert!(err.to_string().contains("unknown combining algorithm"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_unknown_function() {
        assert!(parse_expr("frobnicate(1)").is_err());
    }

    #[test]
    fn rejects_unknown_category() {
        assert!(parse_expr("equal(planet.role, 1)").is_err());
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(parse_policy_set(
            "policyset x { deny-overrides target: equal(subject.a, \"oops) }"
        )
        .is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_policy_set("policyset x { deny-overrides } extra").is_err());
    }

    #[test]
    fn nested_policy_sets_parse() {
        let src = r#"
policyset outer { first-applicable
  policyset inner { permit-unless-deny
    policy p { deny-overrides
      rule r (deny)
    }
  }
}
"#;
        let set = parse_policy_set(src).unwrap();
        assert_eq!(set.children.len(), 1);
        assert!(matches!(set.children[0], PolicyChild::Set(_)));
    }

    #[test]
    fn comments_are_skipped() {
        let src = "# leading\npolicyset x { deny-overrides # trailing\n}";
        assert!(parse_policy_set(src).is_ok());
    }

    #[test]
    fn empty_obligation_args() {
        let src = r#"
policyset x { deny-overrides
  policy p { deny-overrides
    rule r (permit) { obligation permit ping() }
  }
}
"#;
        let set = parse_policy_set(src).unwrap();
        match &set.children[0] {
            PolicyChild::Policy(p) => assert!(p.rules[0].obligations[0].args.is_empty()),
            _ => unreachable!(),
        }
    }
}
