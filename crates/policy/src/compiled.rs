//! The compiled evaluation engine.
//!
//! The tree-walking interpreter in [`expr`](crate::expr)/[`policy`](crate::policy)
//! is the *reference semantics*: it works directly on the `Expr` tree,
//! looks attributes up by `(Category, String)` in the request's
//! `BTreeMap`, and evaluates every child of a policy set for every
//! request. That is exactly what the paper's E5 experiment stresses —
//! PDP decision latency as the policy base grows — and it leaves a lot
//! of performance on the table.
//!
//! This module compiles a [`PolicySet`] once into a form built for the
//! hot path:
//!
//! * [`AttrInterner`] — every [`AttributeId`] referenced anywhere in the
//!   policy is mapped to a dense `u32` symbol.
//! * [`CompiledExpr`] — expressions flattened into an arena (one `Vec`
//!   of nodes + one `Vec` of argument indices, no per-node boxing),
//!   evaluated borrow-first through the crate-internal `ValueView`: literals and request
//!   bags are borrowed, owned values exist only for computed results.
//! * [`PreparedRequest`] — the request's bags re-indexed by symbol, so
//!   every attribute lookup during evaluation is one array access.
//! * [`PreparedPolicySet`] — the compiled tree plus a **target index**
//!   per combining node: children whose target is a single-attribute
//!   equality disjunction (the overwhelmingly common shape, e.g.
//!   `resource.type == "record"`) are bucketed by `(symbol, value)`, and
//!   a request only evaluates the children its attribute values select.
//!   Skipping is *exact*: a child is skipped only when its target is
//!   definitively `NoMatch` (singleton bag, value not in the bucket), so
//!   `Indeterminate` flavours — missing attributes, multi-valued bags —
//!   and combining-algorithm document order are preserved bit-for-bit.
//!   The equivalence property suite (`tests/prop_compiled.rs`) checks
//!   this against the interpreter on randomized policies.
//! * An **early exit** in deny-/permit-overrides nodes: every child
//!   carries two compile-time flags — can its subtree return obligations
//!   together with Permit, with Deny — and once a child has returned the
//!   overriding decision, only later children whose flag for that
//!   decision is set are still evaluated (they can add obligations;
//!   nothing else can change the result any more). Also exact, and the
//!   worst case — no child returns the winner — still evaluates every
//!   candidate. See [`combining::combine_with`](crate::combining).
//!
//! Function application and the six combining algorithms are *shared*
//! with the interpreter ([`expr::apply_func`](crate::expr) and
//! [`combining::combine_with`](crate::combining)), so the two engines
//! cannot drift on the truth tables — only on traversal (which children
//! are visited), which is what the property tests pin down.

use crate::attr::{AttributeId, AttributeValue, Request};
use crate::combining::{combine_with, CombiningAlg};
use crate::decision::{Effect, ExtDecision, Obligation};
use crate::expr::{apply_func, bool_result, compare, EvalError, Expr, Func, ValueView};
use crate::policy::{Policy, PolicyChild, PolicySet};
use crate::rule::Rule;
use crate::target::{MatchResult, Target};
use drams_crypto::sha256::Digest;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash-style multiply-xor hasher for the index maps: their keys are
/// small fixed-width integers ((Sym, u64) buckets), where SipHash's
/// DoS resistance buys nothing and costs a large slice of the per-request
/// index probe.
#[derive(Debug, Clone, Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(SEED);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Dense symbol assigned to an interned [`AttributeId`].
pub type Sym = u32;

/// Interns attribute ids to dense `u32` symbols.
///
/// Built at policy-compile time from every id the policy references;
/// request attributes outside this set cannot influence evaluation and
/// are simply not indexed.
#[derive(Debug, Clone, Default)]
pub struct AttrInterner {
    ids: Vec<AttributeId>,
    map: HashMap<AttributeId, Sym>,
}

impl AttrInterner {
    fn intern(&mut self, id: &AttributeId) -> Sym {
        if let Some(&s) = self.map.get(id) {
            return s;
        }
        let s = self.ids.len() as Sym;
        self.ids.push(id.clone());
        self.map.insert(id.clone(), s);
        s
    }

    /// The symbol for `id`, if the policy references it.
    #[must_use]
    pub fn lookup(&self, id: &AttributeId) -> Option<Sym> {
        self.map.get(id).copied()
    }

    /// The id behind a symbol.
    ///
    /// # Panics
    ///
    /// Panics when the symbol was not produced by this interner.
    #[must_use]
    pub fn resolve(&self, sym: Sym) -> &AttributeId {
        &self.ids[sym as usize]
    }

    /// Number of interned ids.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing is interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A request re-indexed for O(1) symbol lookup: `bags[sym]` borrows the
/// request's value bag (empty slice when absent).
#[derive(Debug)]
pub struct PreparedRequest<'r> {
    bags: Vec<&'r [AttributeValue]>,
}

impl<'r> PreparedRequest<'r> {
    /// The bag for a symbol; empty when the request has no such attribute.
    #[must_use]
    pub fn bag(&self, sym: Sym) -> &'r [AttributeValue] {
        self.bags[sym as usize]
    }
}

// ---- compiled expressions ---------------------------------------------------

/// One arena node of a [`CompiledExpr`].
#[derive(Debug, Clone)]
enum Node {
    Lit(AttributeValue),
    Attr(Sym),
    /// Specialised `cmp(attr, lit)` / `cmp(lit, attr)` — the dominant
    /// leaf shape in targets and conditions, evaluated without the
    /// generic application machinery. Semantics are identical to the
    /// generic path (missing attribute and bag-coercion errors
    /// included).
    CmpAttrLit {
        func: Func,
        sym: Sym,
        value: AttributeValue,
        attr_first: bool,
    },
    Apply {
        func: Func,
        args_start: u32,
        args_len: u32,
    },
}

/// An [`Expr`] flattened into an arena: `nodes` in post-order, argument
/// lists as contiguous index runs in `args`.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    nodes: Vec<Node>,
    args: Vec<u32>,
    root: u32,
}

impl CompiledExpr {
    /// Compiles an expression, interning every attribute id it mentions.
    #[must_use]
    pub fn compile(expr: &Expr, interner: &mut AttrInterner) -> CompiledExpr {
        let mut c = CompiledExpr {
            nodes: Vec::with_capacity(expr.size()),
            args: Vec::new(),
            root: 0,
        };
        c.root = c.push(expr, interner);
        c
    }

    fn push(&mut self, expr: &Expr, interner: &mut AttrInterner) -> u32 {
        let node = match expr {
            Expr::Lit(v) => Node::Lit(v.clone()),
            Expr::Attr(id) => Node::Attr(interner.intern(id)),
            Expr::Apply(func, argv) if is_comparison(*func) && argv.len() == 2 => {
                match argv.as_slice() {
                    [Expr::Attr(id), Expr::Lit(v)] => Node::CmpAttrLit {
                        func: *func,
                        sym: interner.intern(id),
                        value: v.clone(),
                        attr_first: true,
                    },
                    [Expr::Lit(v), Expr::Attr(id)] => Node::CmpAttrLit {
                        func: *func,
                        sym: interner.intern(id),
                        value: v.clone(),
                        attr_first: false,
                    },
                    _ => self.push_apply(*func, argv, interner),
                }
            }
            Expr::Apply(func, argv) => self.push_apply(*func, argv, interner),
        };
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        idx
    }

    fn push_apply(&mut self, func: Func, argv: &[Expr], interner: &mut AttrInterner) -> Node {
        let idxs: Vec<u32> = argv.iter().map(|a| self.push(a, interner)).collect();
        let args_start = self.args.len() as u32;
        self.args.extend(idxs);
        Node::Apply {
            func,
            args_start,
            args_len: argv.len() as u32,
        }
    }

    /// Evaluates against a prepared request.
    ///
    /// # Errors
    ///
    /// The same [`EvalError`]s as [`Expr::eval`].
    pub(crate) fn eval<'a>(
        &'a self,
        request: &PreparedRequest<'a>,
        interner: &'a AttrInterner,
    ) -> Result<ValueView<'a>, EvalError> {
        self.eval_node(self.root, request, interner)
    }

    fn eval_node<'a>(
        &'a self,
        idx: u32,
        request: &PreparedRequest<'a>,
        interner: &'a AttrInterner,
    ) -> Result<ValueView<'a>, EvalError> {
        match &self.nodes[idx as usize] {
            Node::Lit(v) => Ok(ValueView::One(Cow::Borrowed(v))),
            Node::Attr(sym) => {
                let bag = request.bag(*sym);
                if bag.is_empty() {
                    Err(EvalError::MissingAttribute(interner.resolve(*sym).clone()))
                } else {
                    Ok(ValueView::Bag(bag))
                }
            }
            Node::CmpAttrLit {
                func,
                sym,
                value,
                attr_first,
            } => cmp_attr_lit(*func, *sym, value, *attr_first, request, interner)
                .map(|b| ValueView::One(Cow::Owned(AttributeValue::Bool(b)))),
            Node::Apply {
                func,
                args_start,
                args_len,
            } => {
                let argix = &self.args[*args_start as usize..(*args_start + *args_len) as usize];
                apply_func(
                    *func,
                    argix.len(),
                    &mut |i| self.eval_node(argix[i], request, interner),
                    &mut |i| match self.nodes[argix[i] as usize] {
                        Node::Attr(sym) => Some(request.bag(sym).len()),
                        _ => None,
                    },
                )
            }
        }
    }

    fn eval_bool(
        &self,
        request: &PreparedRequest<'_>,
        interner: &AttrInterner,
    ) -> Result<bool, EvalError> {
        // Targets and conditions are overwhelmingly a single comparison;
        // evaluate it without the ValueView round-trip.
        if let Node::CmpAttrLit {
            func,
            sym,
            value,
            attr_first,
        } = &self.nodes[self.root as usize]
        {
            return cmp_attr_lit(*func, *sym, value, *attr_first, request, interner);
        }
        bool_result(self.eval(request, interner)?)
    }
}

/// The specialised comparison: mirrors the generic path exactly — a
/// missing attribute errors, a non-singleton bag fails singleton
/// coercion, and the literal operand can never error.
fn cmp_attr_lit(
    func: Func,
    sym: Sym,
    value: &AttributeValue,
    attr_first: bool,
    request: &PreparedRequest<'_>,
    interner: &AttrInterner,
) -> Result<bool, EvalError> {
    let attr_value = match request.bag(sym) {
        [] => return Err(EvalError::MissingAttribute(interner.resolve(sym).clone())),
        [single] => single,
        bag => {
            return Err(EvalError::TypeMismatch {
                function: func.name().to_string(),
                detail: format!("expected a single value, got a bag of {}", bag.len()),
            })
        }
    };
    let (a, b) = if attr_first {
        (attr_value, value)
    } else {
        (value, attr_value)
    };
    match func {
        Func::Equal => Ok(a == b),
        Func::NotEqual => Ok(a != b),
        _ => compare(func, a, b),
    }
}

// ---- compiled targets -------------------------------------------------------

/// A pre-compiled [`Target`].
#[derive(Debug, Clone)]
enum CompiledTarget {
    Any,
    /// The `Target::expr` shape — one AnyOf, one AllOf, one match — hot
    /// enough to deserve a traversal-free representation.
    Single(CompiledExpr),
    Clauses(Vec<Vec<Vec<CompiledExpr>>>),
}

impl CompiledTarget {
    fn compile(target: &Target, interner: &mut AttrInterner) -> CompiledTarget {
        match target {
            Target::Any => CompiledTarget::Any,
            Target::Clauses(clauses) => {
                if let [any_of] = clauses.as_slice() {
                    if let [all_of] = any_of.as_slice() {
                        if let [m] = all_of.as_slice() {
                            return CompiledTarget::Single(CompiledExpr::compile(m, interner));
                        }
                    }
                }
                CompiledTarget::Clauses(
                    clauses
                        .iter()
                        .map(|any_of| {
                            any_of
                                .iter()
                                .map(|all_of| {
                                    all_of
                                        .iter()
                                        .map(|m| CompiledExpr::compile(m, interner))
                                        .collect()
                                })
                                .collect()
                        })
                        .collect(),
                )
            }
        }
    }

    /// Mirrors [`Target::matches`] exactly.
    fn matches(&self, request: &PreparedRequest<'_>, interner: &AttrInterner) -> MatchResult {
        let clauses = match self {
            CompiledTarget::Any => return MatchResult::Match,
            CompiledTarget::Single(m) => {
                // one clause, one conjunct: the three-valued tables
                // collapse to the expression's own outcome.
                return match m.eval_bool(request, interner) {
                    Ok(true) => MatchResult::Match,
                    Ok(false) => MatchResult::NoMatch,
                    Err(_) => MatchResult::Indeterminate,
                };
            }
            CompiledTarget::Clauses(c) => c,
        };
        let mut target_indeterminate = false;
        for any_of in clauses {
            let mut any_matched = false;
            let mut any_indeterminate = false;
            for all_of in any_of {
                match eval_all_of(all_of, request, interner) {
                    MatchResult::Match => {
                        any_matched = true;
                        break;
                    }
                    MatchResult::NoMatch => {}
                    MatchResult::Indeterminate => any_indeterminate = true,
                }
            }
            if any_matched {
                continue;
            }
            if any_indeterminate {
                target_indeterminate = true;
                continue;
            }
            return MatchResult::NoMatch;
        }
        if target_indeterminate {
            MatchResult::Indeterminate
        } else {
            MatchResult::Match
        }
    }
}

fn eval_all_of(
    all_of: &[CompiledExpr],
    request: &PreparedRequest<'_>,
    interner: &AttrInterner,
) -> MatchResult {
    let mut indeterminate = false;
    for m in all_of {
        match m.eval_bool(request, interner) {
            Ok(true) => {}
            Ok(false) => return MatchResult::NoMatch,
            Err(_) => indeterminate = true,
        }
    }
    if indeterminate {
        MatchResult::Indeterminate
    } else {
        MatchResult::Match
    }
}

// ---- target index -----------------------------------------------------------

/// True for the binary comparison functions the arena specialises and
/// the target index understands.
fn is_comparison(func: Func) -> bool {
    matches!(
        func,
        Func::Equal | Func::NotEqual | Func::Less | Func::LessEq | Func::Greater | Func::GreaterEq
    )
}

/// 64-bit index key respecting [`AttributeValue`]'s equality (Int/Double
/// coerce, `-0.0 == 0.0`): equal values always produce equal keys, so a
/// bucket lookup can never *miss* a matching child. Unequal values may
/// collide (different types, FNV collisions) — harmless over-inclusion:
/// the spurious candidate is fully evaluated and its target rejects the
/// request. Keys are plain `u64`s so the request-time lookup never
/// allocates (a `String`-keyed map would clone the request value per
/// probe).
fn value_key(v: &AttributeValue) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1000_0000_01b3;
    fn fnv(tag: u8, bytes: &[u8]) -> u64 {
        let mut h = FNV_OFFSET ^ u64::from(tag);
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
    fn norm(x: f64) -> u64 {
        // collapse -0.0 onto 0.0 so the key matches PartialEq
        if x == 0.0 {
            0.0f64.to_bits()
        } else {
            x.to_bits()
        }
    }
    match v {
        AttributeValue::Str(s) => fnv(1, s.as_bytes()),
        AttributeValue::Bool(b) => fnv(2, &[u8::from(*b)]),
        AttributeValue::Int(i) => fnv(3, &norm(*i as f64).to_le_bytes()),
        AttributeValue::Double(d) => fnv(3, &norm(*d).to_le_bytes()),
    }
}

/// An indexable guard extracted from a child's target: one AnyOf clause
/// that is a pure single-attribute equality disjunction. If the
/// request's bag for `sym` is a singleton whose value is in `keys`, the
/// clause may match; if it is a singleton *not* in `keys`, the clause —
/// and therefore the whole target — is definitively `NoMatch`. Any
/// non-singleton bag (missing or multi-valued) can make the clause
/// `Indeterminate`, so the child stays a candidate.
#[derive(Debug, Clone)]
struct Guard {
    sym: Sym,
    keys: Vec<u64>,
}

/// True when the target contains an empty AnyOf clause, which can never
/// match: the child is `NotApplicable` for every request and contributes
/// nothing under any combining algorithm.
fn target_is_dead(target: &Target) -> bool {
    matches!(target, Target::Clauses(clauses) if clauses.iter().any(Vec::is_empty))
}

fn extract_guard(target: &Target, interner: &mut AttrInterner) -> Option<Guard> {
    let Target::Clauses(clauses) = target else {
        return None;
    };
    'clause: for any_of in clauses {
        if any_of.is_empty() {
            continue;
        }
        let mut sym: Option<Sym> = None;
        let mut keys: Vec<u64> = Vec::with_capacity(any_of.len());
        for all_of in any_of {
            let [m] = all_of.as_slice() else {
                continue 'clause;
            };
            let Expr::Apply(Func::Equal, args) = m else {
                continue 'clause;
            };
            let (id, value) = match args.as_slice() {
                [Expr::Attr(id), Expr::Lit(v)] | [Expr::Lit(v), Expr::Attr(id)] => (id, v),
                _ => continue 'clause,
            };
            let s = interner.intern(id);
            match sym {
                None => sym = Some(s),
                Some(prev) if prev == s => {}
                Some(_) => continue 'clause,
            }
            let key = value_key(value);
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        return sym.map(|sym| Guard { sym, keys });
    }
    None
}

/// A target index over the children of one combining node.
#[derive(Debug, Clone, Default)]
struct ChildIndex {
    /// Children with no usable guard — always candidates.
    residual: Vec<u32>,
    /// All children guarded on a symbol (candidates whenever the
    /// request's bag for that symbol is not a singleton).
    by_sym: FxMap<Sym, Vec<u32>>,
    /// Children selected by a concrete `(symbol, value-key)`.
    by_value: FxMap<(Sym, u64), Vec<u32>>,
    /// Distinct guarded symbols, in first-seen order.
    syms: Vec<Sym>,
    /// Whether any child was guarded or dead (else `candidates` is the
    /// identity and allocation is skipped).
    trivial: bool,
}

/// The candidate children for one request, in document order.
enum Candidates<'i> {
    /// Every child is a candidate (no index entries).
    All(usize),
    /// A single bucket, borrowed straight from the index (already in
    /// document order) — the common case when all children are guarded
    /// on one symbol, e.g. policies partitioned by `resource.type`.
    Borrowed(&'i [u32]),
    /// A small merged subset held inline — no heap allocation (the
    /// per-policy rule index hits this on every request).
    Inline {
        buf: [u32; INLINE_CANDIDATES],
        len: usize,
    },
    /// A large merged subset, sorted back into document order.
    Owned(Vec<u32>),
}

const INLINE_CANDIDATES: usize = 16;

/// Nodes with fewer children than this skip index construction — see
/// the comment in [`ChildIndex::build`].
const MIN_INDEXED_CHILDREN: usize = 8;

impl ChildIndex {
    fn build(entries: Vec<(Option<Guard>, bool)>) -> ChildIndex {
        let n = entries.len();
        let mut index = ChildIndex::default();
        let mut any_indexed = false;
        for (i, (guard, dead)) in entries.into_iter().enumerate() {
            let i = i as u32;
            if dead {
                any_indexed = true;
                continue;
            }
            match guard {
                Some(Guard { sym, keys }) => {
                    any_indexed = true;
                    if !index.by_sym.contains_key(&sym) {
                        index.syms.push(sym);
                    }
                    index.by_sym.entry(sym).or_default().push(i);
                    for key in keys {
                        index.by_value.entry((sym, key)).or_default().push(i);
                    }
                }
                None => index.residual.push(i),
            }
        }
        // Below ~8 children the index probes (bag check + two hash
        // lookups per guarded symbol, then a merge) cost more than just
        // evaluating every child's target, which is one specialised
        // comparison each — measured on the E5 workload's 5-rule
        // policies. Wide nodes (policy sets with hundreds of children)
        // are where the index earns its keep.
        index.trivial = !any_indexed || n < MIN_INDEXED_CHILDREN;
        debug_assert!(index.trivial || index.residual.len() < n);
        index
    }

    fn candidates<'i>(&'i self, request: &PreparedRequest<'_>, n: usize) -> Candidates<'i> {
        if self.trivial {
            return Candidates::All(n);
        }
        let bucket_for = |sym: Sym| -> Option<&'i [u32]> {
            let bag = request.bag(sym);
            if let [single] = bag {
                self.by_value
                    .get(&(sym, value_key(single)))
                    .map(Vec::as_slice)
            } else {
                // missing or multi-valued bag: the guard clause may be
                // Indeterminate, so every child guarded on this symbol
                // must be evaluated in full.
                self.by_sym.get(&sym).map(Vec::as_slice)
            }
        };
        // Fast path: no residual children and one guarded symbol — the
        // bucket slice *is* the candidate list, no allocation, no sort.
        if self.residual.is_empty() {
            if let [sym] = self.syms.as_slice() {
                return Candidates::Borrowed(bucket_for(*sym).unwrap_or(&[]));
            }
        }
        // Inline merge when the subset is small (per-policy rule indexes
        // are), falling back to a heap Vec for wide nodes.
        let mut buf = [0u32; INLINE_CANDIDATES];
        let mut len = 0usize;
        let mut spill: Option<Vec<u32>> = None;
        {
            let mut push_all = |children: &[u32]| match &mut spill {
                Some(v) => v.extend_from_slice(children),
                None => {
                    if len + children.len() <= INLINE_CANDIDATES {
                        buf[len..len + children.len()].copy_from_slice(children);
                        len += children.len();
                    } else {
                        let mut v = Vec::with_capacity(len + children.len() + 8);
                        v.extend_from_slice(&buf[..len]);
                        v.extend_from_slice(children);
                        spill = Some(v);
                    }
                }
            };
            push_all(&self.residual);
            for &sym in &self.syms {
                if let Some(children) = bucket_for(sym) {
                    push_all(children);
                }
            }
        }
        match spill {
            Some(mut v) => {
                v.sort_unstable();
                Candidates::Owned(v)
            }
            None => {
                buf[..len].sort_unstable();
                Candidates::Inline { buf, len }
            }
        }
    }
}

impl Candidates<'_> {
    fn len(&self) -> usize {
        match self {
            Candidates::All(n) => *n,
            Candidates::Borrowed(c) => c.len(),
            Candidates::Inline { len, .. } => *len,
            Candidates::Owned(c) => c.len(),
        }
    }

    /// Maps a dense candidate position back to the child's document
    /// index.
    fn child(&self, i: usize) -> usize {
        match self {
            Candidates::All(_) => i,
            Candidates::Borrowed(c) => c[i] as usize,
            Candidates::Inline { buf, .. } => buf[i] as usize,
            Candidates::Owned(c) => c[i] as usize,
        }
    }
}

// ---- compiled rules / policies / sets --------------------------------------

/// Obligations pre-split by the effect they fire on, so evaluation never
/// filters.
#[derive(Debug, Clone, Default)]
struct SplitObligations {
    permit: Vec<Obligation>,
    deny: Vec<Obligation>,
}

impl SplitObligations {
    fn of(obligations: &[Obligation]) -> SplitObligations {
        let mut split = SplitObligations::default();
        for o in obligations {
            match o.fulfill_on {
                Effect::Permit => split.permit.push(o.clone()),
                Effect::Deny => split.deny.push(o.clone()),
            }
        }
        split
    }

    fn for_effect(&self, effect: Effect) -> &[Obligation] {
        match effect {
            Effect::Permit => &self.permit,
            Effect::Deny => &self.deny,
        }
    }
}

/// Which decisions a subtree can return obligations with: `permit` is
/// true when something in it can fire an obligation on Permit, likewise
/// `deny`. Worked out once at compile time from the same pre-split lists
/// evaluation reads — a flag wrongly true would only cost an evaluation,
/// one wrongly false would lose an obligation. It is what lets
/// deny-/permit-overrides stop evaluating children after the overriding
/// decision (see [`combine_with`]).
#[derive(Debug, Clone, Copy, Default)]
struct Obliges {
    permit: bool,
    deny: bool,
}

impl Obliges {
    /// A node's own obligations plus everything its children can add.
    fn of_node(own: &SplitObligations, children: &[Obliges]) -> Obliges {
        Obliges {
            permit: !own.permit.is_empty() || children.iter().any(|c| c.permit),
            deny: !own.deny.is_empty() || children.iter().any(|c| c.deny),
        }
    }

    fn on(self, effect: Effect) -> bool {
        match effect {
            Effect::Permit => self.permit,
            Effect::Deny => self.deny,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Children (rules, policies, nested sets) the compiled engine
    /// evaluated on the current test thread.
    static VISITED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of children the compiled engine evaluates while `f` runs, for
/// tests that pin the early exit to the exact set of children it may
/// skip. Per thread, so parallel tests do not disturb each other's count.
#[cfg(test)]
fn count_visited<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = VISITED.get();
    let out = f();
    (VISITED.get() - before, out)
}

#[derive(Debug, Clone)]
struct CompiledRule {
    effect: Effect,
    target: CompiledTarget,
    condition: Option<CompiledExpr>,
    /// Pre-filtered to `fulfill_on == effect`, in document order.
    obligations: Vec<Obligation>,
}

impl CompiledRule {
    fn compile(rule: &Rule, interner: &mut AttrInterner) -> CompiledRule {
        CompiledRule {
            effect: rule.effect,
            target: CompiledTarget::compile(&rule.target, interner),
            condition: rule
                .condition
                .as_ref()
                .map(|c| CompiledExpr::compile(c, interner)),
            obligations: rule
                .obligations
                .iter()
                .filter(|o| o.fulfill_on == rule.effect)
                .cloned()
                .collect(),
        }
    }

    fn applicability(&self, request: &PreparedRequest<'_>, interner: &AttrInterner) -> MatchResult {
        self.target.matches(request, interner)
    }

    /// A rule only ever returns its own effect, with `obligations`.
    fn obliges(&self) -> Obliges {
        let any = !self.obligations.is_empty();
        Obliges {
            permit: any && self.effect == Effect::Permit,
            deny: any && self.effect == Effect::Deny,
        }
    }

    /// Mirrors [`Rule::evaluate`] with borrowed obligations.
    fn evaluate<'a>(
        &'a self,
        request: &PreparedRequest<'a>,
        interner: &'a AttrInterner,
    ) -> (ExtDecision, Vec<&'a Obligation>) {
        #[cfg(test)]
        VISITED.set(VISITED.get() + 1);
        match self.target.matches(request, interner) {
            MatchResult::NoMatch => (ExtDecision::NotApplicable, Vec::new()),
            MatchResult::Indeterminate => (ExtDecision::indeterminate_for(self.effect), Vec::new()),
            MatchResult::Match => match &self.condition {
                None => self.fire(),
                Some(cond) => match cond.eval_bool(request, interner) {
                    Ok(true) => self.fire(),
                    Ok(false) => (ExtDecision::NotApplicable, Vec::new()),
                    Err(_) => (ExtDecision::indeterminate_for(self.effect), Vec::new()),
                },
            },
        }
    }

    fn fire(&self) -> (ExtDecision, Vec<&Obligation>) {
        let decision = match self.effect {
            Effect::Permit => ExtDecision::Permit,
            Effect::Deny => ExtDecision::Deny,
        };
        (decision, self.obligations.iter().collect())
    }
}

#[derive(Debug, Clone)]
struct CompiledPolicy {
    target: CompiledTarget,
    algorithm: CombiningAlg,
    rules: Vec<CompiledRule>,
    /// `rules[i].obliges()`, dense so the early-exit probe of a skipped
    /// rule reads two bytes instead of touching the rule.
    rule_obliges: Vec<Obliges>,
    index: ChildIndex,
    obligations: SplitObligations,
}

impl CompiledPolicy {
    fn compile(policy: &Policy, interner: &mut AttrInterner) -> CompiledPolicy {
        let entries = policy
            .rules
            .iter()
            .map(|r| {
                (
                    extract_guard(&r.target, interner),
                    target_is_dead(&r.target),
                )
            })
            .collect();
        let target = CompiledTarget::compile(&policy.target, interner);
        let rules: Vec<CompiledRule> = policy
            .rules
            .iter()
            .map(|r| CompiledRule::compile(r, interner))
            .collect();
        CompiledPolicy {
            target,
            algorithm: policy.algorithm,
            rule_obliges: rules.iter().map(CompiledRule::obliges).collect(),
            rules,
            index: ChildIndex::build(entries),
            obligations: SplitObligations::of(&policy.obligations),
        }
    }

    fn obliges(&self) -> Obliges {
        Obliges::of_node(&self.obligations, &self.rule_obliges)
    }

    fn applicability(&self, request: &PreparedRequest<'_>, interner: &AttrInterner) -> MatchResult {
        self.target.matches(request, interner)
    }

    fn evaluate<'a>(
        &'a self,
        request: &PreparedRequest<'a>,
        interner: &'a AttrInterner,
    ) -> (ExtDecision, Vec<&'a Obligation>) {
        eval_gated(
            &self.target,
            &self.obligations,
            request,
            interner,
            &mut |request| {
                let cands = self.index.candidates(request, self.rules.len());
                combine_with(
                    self.algorithm,
                    cands.len(),
                    &mut |i| self.rules[cands.child(i)].applicability(request, interner),
                    &mut |i| self.rules[cands.child(i)].evaluate(request, interner),
                    &mut |i, effect| self.rule_obliges[cands.child(i)].on(effect),
                )
            },
        )
    }
}

#[derive(Debug, Clone)]
enum CompiledChild {
    Policy(CompiledPolicy),
    Set(CompiledSet),
}

impl CompiledChild {
    fn applicability(&self, request: &PreparedRequest<'_>, interner: &AttrInterner) -> MatchResult {
        match self {
            CompiledChild::Policy(p) => p.applicability(request, interner),
            CompiledChild::Set(s) => s.applicability(request, interner),
        }
    }

    fn obliges(&self) -> Obliges {
        match self {
            CompiledChild::Policy(p) => p.obliges(),
            CompiledChild::Set(s) => s.obliges(),
        }
    }

    fn evaluate<'a>(
        &'a self,
        request: &PreparedRequest<'a>,
        interner: &'a AttrInterner,
    ) -> (ExtDecision, Vec<&'a Obligation>) {
        #[cfg(test)]
        VISITED.set(VISITED.get() + 1);
        match self {
            CompiledChild::Policy(p) => p.evaluate(request, interner),
            CompiledChild::Set(s) => s.evaluate(request, interner),
        }
    }
}

#[derive(Debug, Clone)]
struct CompiledSet {
    target: CompiledTarget,
    algorithm: CombiningAlg,
    children: Vec<CompiledChild>,
    /// `children[i].obliges()`, dense for the same reason as
    /// [`CompiledPolicy::rule_obliges`] — a wide set skips hundreds of
    /// candidates per request.
    child_obliges: Vec<Obliges>,
    index: ChildIndex,
    obligations: SplitObligations,
}

impl CompiledSet {
    fn compile(set: &PolicySet, interner: &mut AttrInterner) -> CompiledSet {
        let entries = set
            .children
            .iter()
            .map(|c| {
                let target = match c {
                    PolicyChild::Policy(p) => &p.target,
                    PolicyChild::Set(s) => &s.target,
                };
                (extract_guard(target, interner), target_is_dead(target))
            })
            .collect();
        let target = CompiledTarget::compile(&set.target, interner);
        let children: Vec<CompiledChild> = set
            .children
            .iter()
            .map(|c| match c {
                PolicyChild::Policy(p) => {
                    CompiledChild::Policy(CompiledPolicy::compile(p, interner))
                }
                PolicyChild::Set(s) => CompiledChild::Set(CompiledSet::compile(s, interner)),
            })
            .collect();
        CompiledSet {
            target,
            algorithm: set.algorithm,
            child_obliges: children.iter().map(CompiledChild::obliges).collect(),
            children,
            index: ChildIndex::build(entries),
            obligations: SplitObligations::of(&set.obligations),
        }
    }

    fn obliges(&self) -> Obliges {
        Obliges::of_node(&self.obligations, &self.child_obliges)
    }

    fn applicability(&self, request: &PreparedRequest<'_>, interner: &AttrInterner) -> MatchResult {
        self.target.matches(request, interner)
    }

    fn evaluate<'a>(
        &'a self,
        request: &PreparedRequest<'a>,
        interner: &'a AttrInterner,
    ) -> (ExtDecision, Vec<&'a Obligation>) {
        eval_gated(
            &self.target,
            &self.obligations,
            request,
            interner,
            &mut |request| {
                let cands = self.index.candidates(request, self.children.len());
                combine_with(
                    self.algorithm,
                    cands.len(),
                    &mut |i| self.children[cands.child(i)].applicability(request, interner),
                    &mut |i| self.children[cands.child(i)].evaluate(request, interner),
                    &mut |i, effect| self.child_obliges[cands.child(i)].on(effect),
                )
            },
        )
    }
}

/// The shared Policy/PolicySet evaluation skeleton, mirroring
/// `policy::evaluate_node` (XACML §7.12/§7.13): target gating, child
/// combining, own-obligation attachment and the Indeterminate-target
/// adjustment.
fn eval_gated<'a, C>(
    target: &'a CompiledTarget,
    own: &'a SplitObligations,
    request: &PreparedRequest<'a>,
    interner: &'a AttrInterner,
    combine_children: &mut C,
) -> (ExtDecision, Vec<&'a Obligation>)
where
    C: FnMut(&PreparedRequest<'a>) -> (ExtDecision, Vec<&'a Obligation>),
{
    match target.matches(request, interner) {
        MatchResult::NoMatch => (ExtDecision::NotApplicable, Vec::new()),
        MatchResult::Match => {
            let (d, mut obs) = combine_children(request);
            let own_effect = match d {
                ExtDecision::Permit => Some(Effect::Permit),
                ExtDecision::Deny => Some(Effect::Deny),
                _ => None,
            };
            if let Some(effect) = own_effect {
                obs.extend(own.for_effect(effect).iter());
            } else {
                obs.clear();
            }
            (d, obs)
        }
        MatchResult::Indeterminate => {
            // Evaluate children anyway to determine the indeterminate
            // flavour (XACML 3.0 §7.12, table "Indeterminate" row).
            let (d, _) = combine_children(request);
            let adjusted = match d {
                ExtDecision::NotApplicable => ExtDecision::NotApplicable,
                ExtDecision::Permit => ExtDecision::IndeterminateP,
                ExtDecision::Deny => ExtDecision::IndeterminateD,
                ind => ind,
            };
            (adjusted, Vec::new())
        }
    }
}

// ---- the public prepared policy set ----------------------------------------

/// A [`PolicySet`] compiled for the hot path: interned attributes, arena
/// expressions, target indexes. Immutable once built; shared freely
/// across threads (e.g. behind an `Arc` by the PDP and the PRP).
#[derive(Debug, Clone)]
pub struct PreparedPolicySet {
    interner: AttrInterner,
    root: CompiledSet,
    version: Digest,
}

impl PreparedPolicySet {
    /// Compiles a policy set. Compilation walks the tree once; literals
    /// are cloned here, never again at evaluation time.
    #[must_use]
    pub fn compile(set: &PolicySet) -> PreparedPolicySet {
        let mut interner = AttrInterner::default();
        let root = CompiledSet::compile(set, &mut interner);
        PreparedPolicySet {
            interner,
            root,
            version: set.version_digest(),
        }
    }

    /// The version digest of the source policy set.
    #[must_use]
    pub fn version_digest(&self) -> Digest {
        self.version
    }

    /// The attribute interner (symbols are dense `0..attribute_count`).
    #[must_use]
    pub fn interner(&self) -> &AttrInterner {
        &self.interner
    }

    /// Number of distinct attribute ids the policy references.
    #[must_use]
    pub fn attribute_count(&self) -> usize {
        self.interner.len()
    }

    /// Re-indexes a request's bags by symbol. O(request attributes).
    #[must_use]
    pub fn prepare<'r>(&self, request: &'r Request) -> PreparedRequest<'r> {
        const EMPTY: &[AttributeValue] = &[];
        let mut bags = vec![EMPTY; self.interner.len()];
        for (id, bag) in request.iter() {
            if let Some(sym) = self.interner.lookup(id) {
                bags[sym as usize] = bag;
            }
        }
        PreparedRequest { bags }
    }

    /// Evaluates a request: prepare + evaluate, cloning obligations only
    /// into the final result.
    ///
    /// Semantically identical to [`PolicySet::evaluate`] on the source
    /// set (property-tested in `tests/prop_compiled.rs`).
    #[must_use]
    pub fn evaluate(&self, request: &Request) -> (ExtDecision, Vec<Obligation>) {
        self.evaluate_prepared(&self.prepare(request))
    }

    /// Evaluates an already-prepared request (the PDP's decision-cache
    /// miss path).
    #[must_use]
    pub fn evaluate_prepared(
        &self,
        request: &PreparedRequest<'_>,
    ) -> (ExtDecision, Vec<Obligation>) {
        let (d, obs) = self.root.evaluate(request, &self.interner);
        (d, obs.into_iter().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Category;

    fn eq(cat: Category, name: &str, val: impl Into<AttributeValue>) -> Expr {
        Expr::equal(Expr::attr(AttributeId::new(cat, name)), Expr::lit(val))
    }

    fn assert_equivalent(set: &PolicySet, request: &Request) {
        let prepared = PreparedPolicySet::compile(set);
        let (d_ref, o_ref) = set.evaluate(request);
        let (d_c, o_c) = prepared.evaluate(request);
        assert_eq!(d_ref, d_c, "decision diverged for {request:?}");
        assert_eq!(o_ref, o_c, "obligations diverged for {request:?}");
    }

    fn indexed_set(root_alg: CombiningAlg) -> PolicySet {
        // Policies partitioned by resource.type, like the workload
        // generator's federations — the shape the target index serves.
        // Nine guarded policies + the fallback clears the
        // MIN_INDEXED_CHILDREN threshold.
        const TYPES: [&str; 3] = ["record", "image", "report"];
        let mut root = PolicySet::builder("root", root_alg);
        for i in 0..9 {
            let rtype = TYPES[i % TYPES.len()];
            root = root.policy(
                Policy::builder(format!("p{i}"), CombiningAlg::PermitOverrides)
                    .target(Target::expr(eq(Category::Resource, "type", rtype)))
                    .rule(
                        Rule::builder(format!("r{i}"), Effect::Permit)
                            .target(Target::expr(eq(Category::Subject, "role", "doctor")))
                            .obligation(Obligation::new(format!("log{i}"), Effect::Permit))
                            .build(),
                    )
                    .build(),
            );
        }
        root.policy(
            Policy::builder("fallback", CombiningAlg::PermitOverrides)
                .rule(Rule::always("deny-all", Effect::Deny))
                .build(),
        )
        .build()
    }

    #[test]
    fn interner_is_dense_and_stable() {
        let set = indexed_set(CombiningAlg::DenyOverrides);
        let prepared = PreparedPolicySet::compile(&set);
        assert_eq!(prepared.attribute_count(), 2); // resource.type, subject.role
        let sym = prepared
            .interner()
            .lookup(&AttributeId::new(Category::Resource, "type"))
            .unwrap();
        assert_eq!(
            prepared.interner().resolve(sym),
            &AttributeId::new(Category::Resource, "type")
        );
        assert!(prepared
            .interner()
            .lookup(&AttributeId::new(Category::Subject, "ghost"))
            .is_none());
    }

    #[test]
    fn matches_interpreter_on_indexed_sets() {
        for alg in CombiningAlg::ALL {
            let set = indexed_set(alg);
            for request in [
                Request::builder()
                    .subject("role", "doctor")
                    .resource("type", "record")
                    .build(),
                Request::builder()
                    .subject("role", "nurse")
                    .resource("type", "image")
                    .build(),
                // missing resource.type → guarded policies go Indeterminate
                Request::builder().subject("role", "doctor").build(),
                // multi-valued bag → equal() errors, stays a candidate
                Request::builder()
                    .subject("role", "doctor")
                    .resource("type", "record")
                    .resource("type", "image")
                    .build(),
                // unknown resource type → only the fallback applies
                Request::builder()
                    .subject("role", "doctor")
                    .resource("type", "prescription")
                    .build(),
                Request::new(),
            ] {
                assert_equivalent(&set, &request);
            }
        }
    }

    #[test]
    fn index_skips_non_candidates() {
        let set = indexed_set(CombiningAlg::DenyOverrides);
        let prepared = PreparedPolicySet::compile(&set);
        let request = Request::builder()
            .subject("role", "doctor")
            .resource("type", "record")
            .build();
        let pr = prepared.prepare(&request);
        let cands = prepared.root.index.candidates(&pr, 10);
        let picked: Vec<usize> = (0..cands.len()).map(|i| cands.child(i)).collect();
        // the three "record" policies + the unguarded fallback
        assert_eq!(picked, vec![0, 3, 6, 9]);
        assert!(!matches!(cands, Candidates::All(_)));
    }

    #[test]
    fn numeric_guard_keys_coerce_like_equality() {
        // Int guard value must be found by a Double request value and
        // vice versa, matching AttributeValue's PartialEq.
        let set = PolicySet::builder("root", CombiningAlg::DenyUnlessPermit)
            .policy(
                Policy::builder("hour14", CombiningAlg::PermitOverrides)
                    .target(Target::expr(eq(Category::Environment, "hour", 14i64)))
                    .rule(Rule::always("ok", Effect::Permit))
                    .build(),
            )
            .build();
        for request in [
            Request::builder().environment("hour", 14i64).build(),
            Request::builder().environment("hour", 14.0).build(),
            Request::builder().environment("hour", 13.5).build(),
            Request::builder().environment("hour", -0.0).build(),
        ] {
            assert_equivalent(&set, &request);
        }
    }

    #[test]
    fn dead_targets_are_pruned() {
        // An empty AnyOf clause can never match; the interpreter yields
        // NotApplicable and the compiled engine prunes the child.
        let mut set = indexed_set(CombiningAlg::DenyOverrides);
        if let PolicyChild::Policy(p) = &mut set.children[0] {
            p.target = Target::Clauses(vec![vec![]]);
        }
        let request = Request::builder()
            .subject("role", "doctor")
            .resource("type", "record")
            .build();
        assert_equivalent(&set, &request);
    }

    #[test]
    fn obligation_order_is_preserved_across_skips() {
        // permit-overrides collects obligations from every permitting
        // child in document order, even when the index skips others.
        let types = [
            "record", "record", "image", "record", "image", "image", "record", "image",
        ];
        let mut root = PolicySet::builder("root", CombiningAlg::PermitOverrides);
        for (i, rtype) in types.iter().enumerate() {
            root = root.policy(
                Policy::builder(format!("p{i}"), CombiningAlg::PermitOverrides)
                    .target(Target::expr(eq(Category::Resource, "type", *rtype)))
                    .rule(
                        Rule::builder(format!("r{i}"), Effect::Permit)
                            .obligation(Obligation::new(format!("ob{i}"), Effect::Permit))
                            .build(),
                    )
                    .build(),
            );
        }
        let set = root.build();
        let request = Request::builder().resource("type", "record").build();
        let prepared = PreparedPolicySet::compile(&set);
        let (_, obs) = prepared.evaluate(&request);
        let ids: Vec<&str> = obs.iter().map(|o| o.id.as_str()).collect();
        assert_eq!(ids, vec!["ob0", "ob1", "ob3", "ob6"]);
        assert_equivalent(&set, &request);
    }

    /// `n` single-rule policies under a deny-overrides root, every one
    /// guarded on `resource.type == "record"` so the target index hands
    /// all of them over as candidates. `shape(i)` gives policy `i`'s
    /// rule effect, an obligation for that rule and one for the policy.
    fn wide_base(
        n: usize,
        shape: impl Fn(usize) -> (Effect, Option<Obligation>, Option<Obligation>),
    ) -> PolicySet {
        let mut root = PolicySet::builder("root", CombiningAlg::DenyOverrides);
        for i in 0..n {
            let (effect, on_rule, on_policy) = shape(i);
            let mut rule = Rule::builder(format!("r{i}"), effect);
            if let Some(o) = on_rule {
                rule = rule.obligation(o);
            }
            let mut policy = Policy::builder(format!("p{i}"), CombiningAlg::PermitOverrides)
                .target(Target::expr(eq(Category::Resource, "type", "record")))
                .rule(rule.build());
            if let Some(o) = on_policy {
                policy = policy.obligation(o);
            }
            root = root.policy(policy.build());
        }
        root.build()
    }

    /// Evaluates `set` on a `record` request, checks the result against
    /// the interpreter and returns it with the number of children (each
    /// policy and its one rule count separately) the engine visited.
    fn visit(set: &PolicySet) -> (u64, ExtDecision, Vec<String>) {
        let request = Request::builder().resource("type", "record").build();
        let prepared = PreparedPolicySet::compile(set);
        let (visited, (d, obs)) = count_visited(|| prepared.evaluate(&request));
        assert_equivalent(set, &request);
        (visited, d, obs.into_iter().map(|o| o.id).collect())
    }

    #[test]
    fn after_the_winner_only_obligation_bearing_children_are_visited() {
        let set = wide_base(40, |i| match i {
            3 | 30 => (Effect::Deny, None, None),
            10 => (
                Effect::Deny,
                Some(Obligation::new("late-rule", Effect::Deny)),
                None,
            ),
            // Obligations that can only fire on the losing effect.
            17 => (
                Effect::Permit,
                Some(Obligation::new("losing-rule", Effect::Permit)),
                Some(Obligation::new("losing-policy", Effect::Permit)),
            ),
            25 => (
                Effect::Deny,
                None,
                Some(Obligation::new("late-policy", Effect::Deny)),
            ),
            _ => (Effect::Permit, None, None),
        });
        let (visited, d, obligations) = visit(&set);
        assert_eq!(d, ExtDecision::Deny);
        assert_eq!(obligations, ["late-rule", "late-policy"]);
        // Policies 0..=3 up to the first Deny, then exactly 10 and 25 —
        // not 17 (wrong effect), not 30 (a Deny with nothing to add).
        assert_eq!(visited, 2 * (4 + 2));
    }

    #[test]
    fn without_a_winner_every_candidate_is_still_visited() {
        // The combined decision is the loser: nothing may be skipped.
        let (visited, d, _) = visit(&wide_base(40, |_| (Effect::Permit, None, None)));
        assert_eq!(d, ExtDecision::Permit);
        assert_eq!(visited, 2 * 40);
        // The winner turns up last: everything before it was needed.
        let last_denies = wide_base(40, |i| {
            let effect = if i == 39 {
                Effect::Deny
            } else {
                Effect::Permit
            };
            (effect, None, None)
        });
        let (visited, d, _) = visit(&last_denies);
        assert_eq!(d, ExtDecision::Deny);
        assert_eq!(visited, 2 * 40);
    }

    #[test]
    fn rules_inside_a_policy_exit_early_too() {
        // permit-overrides over five rules: the second permits, the
        // fourth can add a Permit obligation, the others cannot matter.
        let mut policy = Policy::builder("p", CombiningAlg::PermitOverrides);
        for (i, effect) in [
            Effect::Deny,
            Effect::Permit,
            Effect::Deny,
            Effect::Permit,
            Effect::Permit,
        ]
        .into_iter()
        .enumerate()
        {
            let mut rule = Rule::builder(format!("r{i}"), effect);
            if i == 3 {
                rule = rule.obligation(Obligation::new("late", Effect::Permit));
            }
            policy = policy.rule(rule.build());
        }
        let set = PolicySet::builder("root", CombiningAlg::FirstApplicable)
            .policy(policy.build())
            .build();
        let (visited, d, obligations) = visit(&set);
        assert_eq!(d, ExtDecision::Permit);
        assert_eq!(obligations, ["late"]);
        assert_eq!(visited, 1 + 3, "the policy, then rules 0, 1 and 3");
    }

    #[test]
    fn nested_sets_compile_and_agree() {
        let inner = indexed_set(CombiningAlg::FirstApplicable);
        let set = PolicySet::builder("outer", CombiningAlg::DenyOverrides)
            .target(Target::expr(eq(Category::Action, "id", "read")))
            .set(inner)
            .build();
        for request in [
            Request::builder()
                .subject("role", "doctor")
                .resource("type", "record")
                .action("id", "read")
                .build(),
            Request::builder()
                .subject("role", "doctor")
                .resource("type", "record")
                .action("id", "write")
                .build(),
            Request::builder().resource("type", "record").build(),
        ] {
            assert_equivalent(&set, &request);
        }
    }

    #[test]
    fn size_special_case_survives_compilation() {
        // size(missing-attr) is 0, not an error, in both engines.
        let set = PolicySet::builder("root", CombiningAlg::DenyUnlessPermit)
            .policy(
                Policy::builder("p", CombiningAlg::PermitOverrides)
                    .rule(
                        Rule::builder("present", Effect::Permit)
                            .condition(Expr::equal(
                                Expr::Apply(
                                    Func::Size,
                                    vec![Expr::attr(AttributeId::new(Category::Subject, "ghost"))],
                                ),
                                Expr::lit(0i64),
                            ))
                            .build(),
                    )
                    .build(),
            )
            .build();
        assert_equivalent(&set, &Request::new());
        assert_equivalent(&set, &Request::builder().subject("ghost", "boo").build());
    }
}
