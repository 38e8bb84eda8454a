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
//! This module compiles a [`PolicySet`] once, in one walk, into a
//! [`PreparedPolicySet`] built for the hot path:
//!
//! * `AttrInterner` — every [`AttributeId`] referenced anywhere in the
//!   policy is mapped to a dense `u32` symbol.
//! * **One arena per version.** Every expression node of every target
//!   and condition lives in one `Vec` of nodes, every argument list and
//!   every target conjunction is a run of one `Vec` of node indices, and
//!   target clauses are runs of index ranges. Rules, policies and
//!   policy sets, their obligation flags and their obligations sit in
//!   version-wide tables too: a node names its children, a rule its
//!   obligations, by a range. Compiling the 1,000-policy `policy_heavy`
//!   base is about 150 allocations, and freeing it a few dozen.
//!   Expressions are evaluated borrow-first through the crate-internal
//!   `ValueView`: literals and request bags are borrowed, owned values
//!   exist only for computed results.
//! * **A literal table** with one entry per distinct literal, told
//!   apart by variant and exact bits or bytes — never by
//!   [`AttributeValue`]'s coercing equality, under which `Int(1)` equals
//!   `Double(1.0)` and `0.0` equals `-0.0`.
//! * `PreparedRequest` — the request's bags re-indexed by symbol, so
//!   every attribute lookup during evaluation is one array access.
//! * A **target index** on every policy or policy set with at least
//!   `MIN_INDEXED_CHILDREN` children, at least one of them guarded:
//!   children whose target is a single-attribute equality disjunction
//!   (the overwhelmingly common shape, e.g. `resource.type == "record"`)
//!   are bucketed by `(symbol, value)`, and a request only evaluates the
//!   children its attribute values select. Narrower nodes have no index
//!   and evaluate every child. Skipping is *exact*: a child is skipped
//!   only when its target is definitively `NoMatch` (singleton bag,
//!   value not in the bucket), so `Indeterminate` flavours — missing
//!   attributes, multi-valued bags — and combining-algorithm document
//!   order are preserved bit-for-bit. The equivalence property suite
//!   (`tests/prop_compiled.rs`) checks this against the interpreter on
//!   randomized policies.
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
use drams_crypto::codec::Encode;
use drams_crypto::sha256::Digest;
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// FxHash-style multiply-xor hasher for the compiled form's maps. Their
/// keys are the policy's own: small fixed-width integers ((Sym, u64)
/// buckets), attribute ids and literals. A request only looks keys up
/// and never inserts, so a request crafted to collide cannot grow a
/// chain, and SipHash's DoS resistance would buy nothing for a large
/// slice of the per-request index probe.
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

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Dense symbol assigned to an interned [`AttributeId`].
type Sym = u32;

/// Interns attribute ids to dense `u32` symbols.
///
/// Built at policy-compile time from every id the policy references;
/// request attributes outside this set cannot influence evaluation and
/// are simply not indexed.
#[derive(Debug, Clone, Default)]
pub(crate) struct AttrInterner {
    ids: Vec<AttributeId>,
    map: FxMap<AttributeId, Sym>,
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
    fn lookup(&self, id: &AttributeId) -> Option<Sym> {
        self.map.get(id).copied()
    }

    /// The id behind a symbol.
    ///
    /// # Panics
    ///
    /// Panics when the symbol was not produced by this interner.
    #[must_use]
    fn resolve(&self, sym: Sym) -> &AttributeId {
        &self.ids[sym as usize]
    }

    /// Number of interned ids.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }
}

/// A request re-indexed for O(1) symbol lookup: `bags[sym]` borrows the
/// request's value bag (empty slice when absent).
#[derive(Debug)]
pub(crate) struct PreparedRequest<'r> {
    bags: Vec<&'r [AttributeValue]>,
}

impl<'r> PreparedRequest<'r> {
    /// The bag for a symbol; empty when the request has no such attribute.
    #[must_use]
    pub fn bag(&self, sym: Sym) -> &'r [AttributeValue] {
        self.bags[sym as usize]
    }
}

// ---- the arena --------------------------------------------------------------

/// A run of consecutive entries in one of the arena's tables.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn new(start: usize, len: usize) -> Span {
        Span {
            start: start as u32,
            len: len as u32,
        }
    }

    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// One expression node; the operands it names are other nodes.
#[derive(Debug, Clone, Copy)]
enum Node {
    /// An index into the literal table.
    Lit(u32),
    Attr(Sym),
    /// Specialised `cmp(attr, lit)` / `cmp(lit, attr)` — the dominant
    /// leaf shape in targets and conditions, evaluated without the
    /// generic application machinery. Semantics are identical to the
    /// generic path (missing attribute and bag-coercion errors
    /// included).
    CmpAttrLit {
        func: Func,
        sym: Sym,
        lit: u32,
        attr_first: bool,
    },
    /// `args` is a run of the argument-index table.
    Apply {
        func: Func,
        args: Span,
    },
}

/// A compiled [`Expr`]: the index of its root node. Operands come
/// before the node that applies them.
#[derive(Debug, Clone, Copy)]
struct CompiledExpr(u32);

/// A pre-compiled [`Target`].
#[derive(Debug, Clone, Copy)]
enum CompiledTarget {
    Any,
    /// The `Target::expr` shape — one AnyOf, one AllOf, one match — hot
    /// enough to deserve a traversal-free representation.
    Single(CompiledExpr),
    /// A run of AnyOf clauses, each a run of AllOf conjunctions, each a
    /// run of the argument-index table holding its matches' roots.
    Clauses(Span),
}

/// Obligations pre-split by the effect they fire on, so evaluation never
/// filters: two runs of the obligation table.
#[derive(Debug, Clone, Copy, Default)]
struct SplitObligations {
    permit: Span,
    deny: Span,
}

impl SplitObligations {
    fn for_effect(self, effect: Effect) -> Span {
        match effect {
            Effect::Permit => self.permit,
            Effect::Deny => self.deny,
        }
    }
}

/// Which decisions a subtree can return obligations with: `permit` is
/// true when something in it can fire an obligation on Permit, likewise
/// `deny`. Worked out once at compile time from the same pre-split runs
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
    fn of_node(own: SplitObligations, children: &[Obliges]) -> Obliges {
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

#[derive(Debug, Clone)]
struct FlatRule {
    effect: Effect,
    target: CompiledTarget,
    condition: Option<CompiledExpr>,
    /// Pre-filtered to `fulfill_on == effect`, in document order.
    obligations: Span,
}

/// What a policy or a policy set combines: a run of the rule table, or
/// a run of the policy table.
#[derive(Debug, Clone, Copy)]
enum Children {
    Rules(Span),
    Policies(Span),
}

/// A policy or a policy set. Both gate on a target, combine their
/// children and attach their own obligations (XACML §7.12/§7.13); they
/// differ only in what their children are.
#[derive(Debug, Clone)]
struct FlatPolicy {
    target: CompiledTarget,
    algorithm: CombiningAlg,
    children: Children,
    /// Into the index table, for the nodes that have one.
    index: Option<u32>,
    obligations: SplitObligations,
}

impl FlatPolicy {
    /// The slot a policy set reserves for each child before compiling
    /// it, so that its children are one contiguous run of the table.
    const RESERVED: FlatPolicy = FlatPolicy {
        target: CompiledTarget::Any,
        algorithm: CombiningAlg::DenyOverrides,
        children: Children::Rules(Span { start: 0, len: 0 }),
        index: None,
        obligations: SplitObligations {
            permit: Span { start: 0, len: 0 },
            deny: Span { start: 0, len: 0 },
        },
    };
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

/// True when the target contains an empty AnyOf clause, which can never
/// match: the child is `NotApplicable` for every request and contributes
/// nothing under any combining algorithm.
fn target_is_dead(target: &Target) -> bool {
    matches!(target, Target::Clauses(clauses) if clauses.iter().any(Vec::is_empty))
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
}

/// The candidate children for one request, in document order.
enum Candidates<'i> {
    /// Every child is a candidate (the node has no index).
    All(usize),
    /// A single bucket, borrowed straight from the index (already in
    /// document order) — the common case when all children are guarded
    /// on one symbol, e.g. policies partitioned by `resource.type`.
    Borrowed(&'i [u32]),
    /// A small merged subset held inline — no heap allocation.
    Inline {
        buf: [u32; INLINE_CANDIDATES],
        len: usize,
    },
    /// A large merged subset, sorted back into document order.
    Owned(Vec<u32>),
}

const INLINE_CANDIDATES: usize = 16;

/// Nodes with fewer children than this have no index. Below ~8 children
/// the index probes (bag check + two hash lookups per guarded symbol,
/// then a merge) cost more than just evaluating every child's target,
/// which is one specialised comparison each — measured on the E5
/// workload's 5-rule policies. Wide nodes (policy sets with hundreds of
/// children) are where the index earns its keep.
const MIN_INDEXED_CHILDREN: usize = 8;

impl ChildIndex {
    fn candidates<'i>(&'i self, request: &PreparedRequest<'_>) -> Candidates<'i> {
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
        // Inline merge when the subset is small, falling back to a heap
        // Vec for wide ones.
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

// ---- the public prepared policy set ----------------------------------------

/// A [`PolicySet`] compiled for the hot path: interned attributes, one
/// arena of expressions, rules and policies, target indexes on the wide
/// nodes. Immutable once built; shared freely across threads (e.g.
/// behind an `Arc` by the PDP and the PRP).
///
/// This is the whole of a policy version once it is published: the
/// compiled form plus the source set's canonical encoding, the exact
/// bytes [`PreparedPolicySet::version_digest`] was computed over. The
/// source tree itself is not kept: decoding
/// [`PreparedPolicySet::canonical_bytes`] rebuilds it.
#[derive(Debug, Clone)]
pub struct PreparedPolicySet {
    interner: AttrInterner,
    /// One entry per distinct literal.
    literals: Vec<AttributeValue>,
    /// Every expression node of every target and condition.
    nodes: Vec<Node>,
    /// Node indices: each `Apply`'s arguments, each AllOf's matches.
    args: Vec<u32>,
    /// AllOf conjunctions, as runs of `args`.
    all_ofs: Vec<Span>,
    /// AnyOf clauses, as runs of `all_ofs`.
    any_ofs: Vec<Span>,
    rules: Vec<FlatRule>,
    /// `rules[i]`'s flags, dense so the early-exit probe of a skipped
    /// rule reads two bytes instead of touching the rule.
    rule_obliges: Vec<Obliges>,
    /// Policies and policy sets, the root at 0; a set's children are
    /// one run.
    policies: Vec<FlatPolicy>,
    /// `policies[i]`'s flags, dense for the same reason — a wide set
    /// skips hundreds of candidates per request.
    policy_obliges: Vec<Obliges>,
    obligations: Vec<Obligation>,
    indexes: Vec<ChildIndex>,
    canonical: Box<[u8]>,
    version: Digest,
}

impl PreparedPolicySet {
    /// Compiles a policy set in one walk of its tree. Each distinct
    /// literal is cloned once, here, never at evaluation time. The set
    /// is encoded once, and the digest is taken over the bytes kept.
    #[must_use]
    pub fn compile(set: &PolicySet) -> PreparedPolicySet {
        let canonical = set.to_canonical_bytes().into_boxed_slice();
        let version = Digest::of(&canonical);
        let mut compiler = Compiler {
            out: PreparedPolicySet {
                interner: AttrInterner::default(),
                literals: Vec::new(),
                nodes: Vec::new(),
                args: Vec::new(),
                all_ofs: Vec::new(),
                any_ofs: Vec::new(),
                rules: Vec::new(),
                rule_obliges: Vec::new(),
                policies: Vec::new(),
                policy_obliges: Vec::new(),
                obligations: Vec::new(),
                indexes: Vec::new(),
                canonical,
                version,
            },
            literal_ids: FxMap::default(),
            keys: Vec::new(),
        };
        let root = compiler.reserve(1);
        compiler.set(set, root);
        compiler.out
    }

    /// The version digest of the source policy set: the SHA-256 of
    /// [`PreparedPolicySet::canonical_bytes`], equal to
    /// [`PolicySet::version_digest`] of the set it was compiled from.
    #[must_use]
    pub fn version_digest(&self) -> Digest {
        self.version
    }

    /// The source set's canonical encoding, the bytes the version digest
    /// is defined over (what a checkpoint persists).
    #[must_use]
    pub fn canonical_bytes(&self) -> &[u8] {
        &self.canonical
    }

    /// Re-indexes a request's bags by symbol. O(request attributes).
    #[must_use]
    pub(crate) fn prepare<'r>(&self, request: &'r Request) -> PreparedRequest<'r> {
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
    pub(crate) fn evaluate_prepared(
        &self,
        request: &PreparedRequest<'_>,
    ) -> (ExtDecision, Vec<Obligation>) {
        let (d, obs) = self.eval_policy(0, request);
        (d, obs.into_iter().cloned().collect())
    }
}

// ---- compilation ------------------------------------------------------------

/// A literal told apart by variant and exact bits or bytes, borrowed
/// from the source set while it compiles.
#[derive(Debug, PartialEq, Eq, Hash)]
enum LiteralKey<'s> {
    Str(&'s str),
    Int(i64),
    Double(u64),
    Bool(bool),
}

/// The one walk that fills a [`PreparedPolicySet`]'s tables.
struct Compiler<'s> {
    out: PreparedPolicySet,
    /// Each distinct literal's place in the literal table.
    literal_ids: FxMap<LiteralKey<'s>, u32>,
    /// The guard keys of the child being indexed, reused across children.
    keys: Vec<u64>,
}

impl<'s> Compiler<'s> {
    fn literal(&mut self, value: &'s AttributeValue) -> u32 {
        let key = match value {
            AttributeValue::Str(s) => LiteralKey::Str(s),
            AttributeValue::Int(i) => LiteralKey::Int(*i),
            AttributeValue::Double(d) => LiteralKey::Double(d.to_bits()),
            AttributeValue::Bool(b) => LiteralKey::Bool(*b),
        };
        let literals = &mut self.out.literals;
        *self.literal_ids.entry(key).or_insert_with(|| {
            literals.push(value.clone());
            (literals.len() - 1) as u32
        })
    }

    fn expr(&mut self, expr: &'s Expr) -> CompiledExpr {
        CompiledExpr(self.node(expr))
    }

    /// Compiles `expr`'s operands, then `expr`; returns its node index.
    fn node(&mut self, expr: &'s Expr) -> u32 {
        let node = match expr {
            Expr::Lit(v) => Node::Lit(self.literal(v)),
            Expr::Attr(id) => Node::Attr(self.out.interner.intern(id)),
            Expr::Apply(func, argv) => match argv.as_slice() {
                [Expr::Attr(id), Expr::Lit(v)] if is_comparison(*func) => Node::CmpAttrLit {
                    func: *func,
                    sym: self.out.interner.intern(id),
                    lit: self.literal(v),
                    attr_first: true,
                },
                [Expr::Lit(v), Expr::Attr(id)] if is_comparison(*func) => Node::CmpAttrLit {
                    func: *func,
                    sym: self.out.interner.intern(id),
                    lit: self.literal(v),
                    attr_first: false,
                },
                _ => Node::Apply {
                    func: *func,
                    args: self.run(argv),
                },
            },
        };
        self.out.nodes.push(node);
        (self.out.nodes.len() - 1) as u32
    }

    /// Compiles `exprs` into one run of the argument-index table. The
    /// run is reserved first: the operands' own arguments land after it.
    fn run(&mut self, exprs: &'s [Expr]) -> Span {
        let start = self.out.args.len();
        self.out.args.resize(start + exprs.len(), 0);
        for (slot, expr) in (start..).zip(exprs) {
            self.out.args[slot] = self.node(expr);
        }
        Span::new(start, exprs.len())
    }

    fn target(&mut self, target: &'s Target) -> CompiledTarget {
        let Target::Clauses(clauses) = target else {
            return CompiledTarget::Any;
        };
        if let [any_of] = clauses.as_slice() {
            if let [all_of] = any_of.as_slice() {
                if let [m] = all_of.as_slice() {
                    return CompiledTarget::Single(self.expr(m));
                }
            }
        }
        // Nothing below pushes a clause, so each level's entries come
        // out contiguous.
        let start = self.out.any_ofs.len();
        for any_of in clauses {
            let all_start = self.out.all_ofs.len();
            for all_of in any_of {
                let matches = self.run(all_of);
                self.out.all_ofs.push(matches);
            }
            self.out.any_ofs.push(Span::new(all_start, any_of.len()));
        }
        CompiledTarget::Clauses(Span::new(start, clauses.len()))
    }

    /// Copies the obligations that fire on `effect`, in document order.
    fn obligations_on(&mut self, obligations: &[Obligation], effect: Effect) -> Span {
        let start = self.out.obligations.len();
        let firing = obligations.iter().filter(|o| o.fulfill_on == effect);
        self.out.obligations.extend(firing.cloned());
        Span::new(start, self.out.obligations.len() - start)
    }

    fn split(&mut self, obligations: &[Obligation]) -> SplitObligations {
        SplitObligations {
            permit: self.obligations_on(obligations, Effect::Permit),
            deny: self.obligations_on(obligations, Effect::Deny),
        }
    }

    /// Reserves `n` consecutive slots of the policy table.
    fn reserve(&mut self, n: usize) -> usize {
        let start = self.out.policies.len();
        self.out.policies.resize(start + n, FlatPolicy::RESERVED);
        self.out
            .policy_obliges
            .resize(start + n, Obliges::default());
        start
    }

    /// Fills a reserved slot once the node's children are compiled.
    fn place(&mut self, at: usize, policy: FlatPolicy) {
        let children = match policy.children {
            Children::Rules(run) => &self.out.rule_obliges[run.range()],
            Children::Policies(run) => &self.out.policy_obliges[run.range()],
        };
        self.out.policy_obliges[at] = Obliges::of_node(policy.obligations, children);
        self.out.policies[at] = policy;
    }

    fn set(&mut self, set: &'s PolicySet, at: usize) {
        let index = self.index(set.children.iter().map(|c| match c {
            PolicyChild::Policy(p) => &p.target,
            PolicyChild::Set(s) => &s.target,
        }));
        let target = self.target(&set.target);
        let start = self.reserve(set.children.len());
        for (slot, child) in (start..).zip(&set.children) {
            match child {
                PolicyChild::Policy(p) => self.policy(p, slot),
                PolicyChild::Set(s) => self.set(s, slot),
            }
        }
        let policy = FlatPolicy {
            target,
            algorithm: set.algorithm,
            children: Children::Policies(Span::new(start, set.children.len())),
            index,
            obligations: self.split(&set.obligations),
        };
        self.place(at, policy);
    }

    fn policy(&mut self, policy: &'s Policy, at: usize) {
        let index = self.index(policy.rules.iter().map(|r| &r.target));
        let target = self.target(&policy.target);
        let start = self.out.rules.len();
        for rule in &policy.rules {
            self.rule(rule);
        }
        let policy = FlatPolicy {
            target,
            algorithm: policy.algorithm,
            children: Children::Rules(Span::new(start, policy.rules.len())),
            index,
            obligations: self.split(&policy.obligations),
        };
        self.place(at, policy);
    }

    fn rule(&mut self, rule: &'s Rule) {
        let target = self.target(&rule.target);
        let condition = rule.condition.as_ref().map(|c| self.expr(c));
        let obligations = self.obligations_on(&rule.obligations, rule.effect);
        // A rule only ever returns its own effect, with `obligations`.
        let any = !obligations.is_empty();
        self.out.rule_obliges.push(Obliges {
            permit: any && rule.effect == Effect::Permit,
            deny: any && rule.effect == Effect::Deny,
        });
        self.out.rules.push(FlatRule {
            effect: rule.effect,
            target,
            condition,
            obligations,
        });
    }

    /// Builds the target index over a node's children, given their
    /// targets, and returns its place in the index table. A node below
    /// [`MIN_INDEXED_CHILDREN`], or one with no guarded or dead child,
    /// gets none and evaluates every child.
    fn index(&mut self, targets: impl ExactSizeIterator<Item = &'s Target>) -> Option<u32> {
        let n = targets.len();
        if n < MIN_INDEXED_CHILDREN {
            return None;
        }
        let mut index = ChildIndex::default();
        let mut any_indexed = false;
        for (i, target) in targets.enumerate() {
            let i = i as u32;
            if target_is_dead(target) {
                any_indexed = true;
                continue;
            }
            let Some(sym) = self.guard(target) else {
                index.residual.push(i);
                continue;
            };
            any_indexed = true;
            if !index.by_sym.contains_key(&sym) {
                index.syms.push(sym);
            }
            index.by_sym.entry(sym).or_default().push(i);
            for &key in &self.keys {
                index.by_value.entry((sym, key)).or_default().push(i);
            }
        }
        if !any_indexed {
            return None;
        }
        debug_assert!(index.residual.len() < n);
        self.out.indexes.push(index);
        Some((self.out.indexes.len() - 1) as u32)
    }

    /// Finds an indexable guard in a child's target: one AnyOf clause
    /// that is a pure single-attribute equality disjunction. Returns the
    /// attribute's symbol and leaves the distinct value keys in
    /// `self.keys`. If the request's bag for the symbol is a singleton
    /// whose value's key is among them, the clause may match; if it is a
    /// singleton *not* among them, the clause — and therefore the whole
    /// target — is definitively `NoMatch`. Any non-singleton bag
    /// (missing or multi-valued) can make the clause `Indeterminate`, so
    /// the child stays a candidate.
    fn guard(&mut self, target: &Target) -> Option<Sym> {
        let Target::Clauses(clauses) = target else {
            return None;
        };
        'clause: for any_of in clauses {
            if any_of.is_empty() {
                continue;
            }
            let mut sym: Option<Sym> = None;
            self.keys.clear();
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
                let s = self.out.interner.intern(id);
                match sym {
                    None => sym = Some(s),
                    Some(prev) if prev == s => {}
                    Some(_) => continue 'clause,
                }
                let key = value_key(value);
                if !self.keys.contains(&key) {
                    self.keys.push(key);
                }
            }
            return sym;
        }
        None
    }
}

// ---- evaluation -------------------------------------------------------------

impl PreparedPolicySet {
    /// The same [`EvalError`]s as [`Expr::eval`].
    fn eval_node<'a>(
        &'a self,
        idx: u32,
        request: &PreparedRequest<'a>,
    ) -> Result<ValueView<'a>, EvalError> {
        match self.nodes[idx as usize] {
            Node::Lit(lit) => Ok(ValueView::One(Cow::Borrowed(&self.literals[lit as usize]))),
            Node::Attr(sym) => {
                let bag = request.bag(sym);
                if bag.is_empty() {
                    Err(EvalError::MissingAttribute(
                        self.interner.resolve(sym).clone(),
                    ))
                } else {
                    Ok(ValueView::Bag(bag))
                }
            }
            Node::CmpAttrLit {
                func,
                sym,
                lit,
                attr_first,
            } => self
                .cmp_attr_lit(func, sym, lit, attr_first, request)
                .map(|b| ValueView::One(Cow::Owned(AttributeValue::Bool(b)))),
            Node::Apply { func, args } => {
                let argix = &self.args[args.range()];
                apply_func(
                    func,
                    argix.len(),
                    &mut |i| self.eval_node(argix[i], request),
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
        expr: CompiledExpr,
        request: &PreparedRequest<'_>,
    ) -> Result<bool, EvalError> {
        // Targets and conditions are overwhelmingly a single comparison;
        // evaluate it without the ValueView round-trip.
        if let Node::CmpAttrLit {
            func,
            sym,
            lit,
            attr_first,
        } = self.nodes[expr.0 as usize]
        {
            return self.cmp_attr_lit(func, sym, lit, attr_first, request);
        }
        bool_result(self.eval_node(expr.0, request)?)
    }

    /// The specialised comparison: mirrors the generic path exactly — a
    /// missing attribute errors, a non-singleton bag fails singleton
    /// coercion, and the literal operand can never error.
    fn cmp_attr_lit(
        &self,
        func: Func,
        sym: Sym,
        lit: u32,
        attr_first: bool,
        request: &PreparedRequest<'_>,
    ) -> Result<bool, EvalError> {
        let attr_value = match request.bag(sym) {
            [] => {
                return Err(EvalError::MissingAttribute(
                    self.interner.resolve(sym).clone(),
                ))
            }
            [single] => single,
            bag => {
                return Err(EvalError::TypeMismatch {
                    function: func.name().to_string(),
                    detail: format!("expected a single value, got a bag of {}", bag.len()),
                })
            }
        };
        let value = &self.literals[lit as usize];
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

    /// Mirrors [`Target::matches`] exactly.
    fn matches(&self, target: CompiledTarget, request: &PreparedRequest<'_>) -> MatchResult {
        let clauses = match target {
            CompiledTarget::Any => return MatchResult::Match,
            CompiledTarget::Single(m) => {
                // one clause, one conjunct: the three-valued tables
                // collapse to the expression's own outcome.
                return match self.eval_bool(m, request) {
                    Ok(true) => MatchResult::Match,
                    Ok(false) => MatchResult::NoMatch,
                    Err(_) => MatchResult::Indeterminate,
                };
            }
            CompiledTarget::Clauses(c) => c,
        };
        let mut target_indeterminate = false;
        for any_of in &self.any_ofs[clauses.range()] {
            let mut any_matched = false;
            let mut any_indeterminate = false;
            for &all_of in &self.all_ofs[any_of.range()] {
                match self.all_of(all_of, request) {
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

    fn all_of(&self, matches: Span, request: &PreparedRequest<'_>) -> MatchResult {
        let mut indeterminate = false;
        for &m in &self.args[matches.range()] {
            match self.eval_bool(CompiledExpr(m), request) {
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

    /// Mirrors [`Rule::evaluate`] with borrowed obligations.
    fn eval_rule<'a>(
        &'a self,
        at: usize,
        request: &PreparedRequest<'a>,
    ) -> (ExtDecision, Vec<&'a Obligation>) {
        #[cfg(test)]
        VISITED.set(VISITED.get() + 1);
        let rule = &self.rules[at];
        match self.matches(rule.target, request) {
            MatchResult::NoMatch => (ExtDecision::NotApplicable, Vec::new()),
            MatchResult::Indeterminate => (ExtDecision::indeterminate_for(rule.effect), Vec::new()),
            MatchResult::Match => match rule.condition {
                None => self.fire(rule),
                Some(cond) => match self.eval_bool(cond, request) {
                    Ok(true) => self.fire(rule),
                    Ok(false) => (ExtDecision::NotApplicable, Vec::new()),
                    Err(_) => (ExtDecision::indeterminate_for(rule.effect), Vec::new()),
                },
            },
        }
    }

    fn fire(&self, rule: &FlatRule) -> (ExtDecision, Vec<&Obligation>) {
        let decision = match rule.effect {
            Effect::Permit => ExtDecision::Permit,
            Effect::Deny => ExtDecision::Deny,
        };
        (
            decision,
            self.obligations[rule.obligations.range()].iter().collect(),
        )
    }

    /// Evaluates a policy or a policy set, mirroring
    /// `policy::evaluate_node` (XACML §7.12/§7.13): target gating, child
    /// combining, own-obligation attachment and the Indeterminate-target
    /// adjustment.
    fn eval_policy<'a>(
        &'a self,
        at: usize,
        request: &PreparedRequest<'a>,
    ) -> (ExtDecision, Vec<&'a Obligation>) {
        let policy = &self.policies[at];
        match self.matches(policy.target, request) {
            MatchResult::NoMatch => (ExtDecision::NotApplicable, Vec::new()),
            MatchResult::Match => {
                let (d, mut obs) = self.combine_children(policy, request);
                let own_effect = match d {
                    ExtDecision::Permit => Some(Effect::Permit),
                    ExtDecision::Deny => Some(Effect::Deny),
                    _ => None,
                };
                if let Some(effect) = own_effect {
                    let own = policy.obligations.for_effect(effect);
                    obs.extend(self.obligations[own.range()].iter());
                } else {
                    obs.clear();
                }
                (d, obs)
            }
            MatchResult::Indeterminate => {
                // Evaluate children anyway to determine the indeterminate
                // flavour (XACML 3.0 §7.12, table "Indeterminate" row).
                let (d, _) = self.combine_children(policy, request);
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

    /// Combines the candidate children of a policy or a policy set, in
    /// document order.
    fn combine_children<'a>(
        &'a self,
        policy: &FlatPolicy,
        request: &PreparedRequest<'a>,
    ) -> (ExtDecision, Vec<&'a Obligation>) {
        let (run, obliges) = match policy.children {
            Children::Rules(run) => (run, &self.rule_obliges),
            Children::Policies(run) => (run, &self.policy_obliges),
        };
        let cands = match policy.index {
            Some(index) => self.indexes[index as usize].candidates(request),
            None => Candidates::All(run.len as usize),
        };
        let at = |i: usize| run.start as usize + cands.child(i);
        let may_oblige = &mut |i, effect| obliges[at(i)].on(effect);
        match policy.children {
            Children::Rules(_) => combine_with(
                policy.algorithm,
                cands.len(),
                &mut |i| self.matches(self.rules[at(i)].target, request),
                &mut |i| self.eval_rule(at(i), request),
                may_oblige,
            ),
            Children::Policies(_) => combine_with(
                policy.algorithm,
                cands.len(),
                &mut |i| self.matches(self.policies[at(i)].target, request),
                &mut |i| {
                    #[cfg(test)]
                    VISITED.set(VISITED.get() + 1);
                    self.eval_policy(at(i), request)
                },
                may_oblige,
            ),
        }
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
        assert_eq!(prepared.interner.len(), 2); // resource.type, subject.role
        let sym = prepared
            .interner
            .lookup(&AttributeId::new(Category::Resource, "type"))
            .unwrap();
        assert_eq!(
            prepared.interner.resolve(sym),
            &AttributeId::new(Category::Resource, "type")
        );
        assert!(prepared
            .interner
            .lookup(&AttributeId::new(Category::Subject, "ghost"))
            .is_none());
    }

    #[test]
    fn each_distinct_literal_is_kept_once() {
        // Nine "doctor"s and three each of "record", "image", "report".
        let prepared = PreparedPolicySet::compile(&indexed_set(CombiningAlg::DenyOverrides));
        assert_eq!(prepared.literals.len(), 4);
    }

    #[test]
    fn keeps_the_digested_bytes_and_they_decode_to_the_source() {
        use drams_crypto::codec::Decode;
        let set = indexed_set(CombiningAlg::DenyOverrides);
        let prepared = PreparedPolicySet::compile(&set);
        assert_eq!(prepared.canonical_bytes(), set.to_canonical_bytes());
        assert_eq!(
            Digest::of(prepared.canonical_bytes()),
            prepared.version_digest()
        );
        assert_eq!(prepared.version_digest(), set.version_digest());
        let decoded = PolicySet::from_canonical_bytes(prepared.canonical_bytes()).unwrap();
        assert_eq!(decoded, set);
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
        let root = prepared.policies[0]
            .index
            .expect("ten children, nine guarded");
        let cands = prepared.indexes[root as usize].candidates(&pr);
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
