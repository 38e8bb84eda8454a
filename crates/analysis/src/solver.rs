//! A DPLL-style satisfiability solver over comparison atoms.
//!
//! The solver decides satisfiability of a [`Formula`] whose atoms are
//! comparisons `attr op constant`, using:
//!
//! * formula-guided branching — the branching atom is always the first
//!   atom whose value the partial evaluation actually needs, which prunes
//!   the search to the live fragment of the formula;
//! * a per-attribute **theory check** — equality, disequality and interval
//!   reasoning over the attribute's inferred type, so `x < 3 ∧ x > 7` or
//!   `role = "a" ∧ role = "b"` conflicts are detected immediately;
//! * **witness construction** — a satisfying assignment is turned into a
//!   concrete [`Request`] that the runtime engine can evaluate, closing the
//!   loop between symbolic and concrete semantics.

use crate::constraint::{AnalysisError, Atom, CmpOp, Formula, NegatedOp};
use crate::types::{TypeEnv, ValueType};
use drams_policy::attr::{AttributeId, AttributeValue, Request};
use std::collections::BTreeMap;

/// A satisfying assignment, as concrete attribute values.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// One value per attribute occurring in the formula.
    pub values: BTreeMap<AttributeId, AttributeValue>,
}

impl Model {
    /// Converts the model into a complete, single-valued [`Request`].
    #[must_use]
    pub fn to_request(&self) -> Request {
        let mut req = Request::new();
        for (id, v) in &self.values {
            req.add(id.category, id.name.clone(), v.clone());
        }
        req
    }
}

/// Result of three-valued partial evaluation.
enum PartialEval {
    Known(bool),
    /// Undetermined; carries the index of the first needed unassigned atom.
    Needs(usize),
}

/// Decides satisfiability of `formula`.
///
/// Returns `Ok(Some(model))` with a witness, `Ok(None)` when unsatisfiable.
///
/// # Errors
///
/// Returns [`AnalysisError`] when the formula's atoms cannot be typed (see
/// [`TypeEnv::infer`]).
pub fn solve(formula: &Formula) -> Result<Option<Model>, AnalysisError> {
    let atoms = formula.atoms();
    let env = TypeEnv::infer(&atoms)?;
    let index: BTreeMap<_, usize> = atoms
        .iter()
        .enumerate()
        .map(|(i, a)| (a.key(), i))
        .collect();
    let mut assignment: Vec<Option<bool>> = vec![None; atoms.len()];
    let solver = SolverCtx {
        atoms: &atoms,
        index: &index,
        env: &env,
    };
    if solver.dpll(formula, &mut assignment) {
        Ok(Some(solver.build_model(&assignment)))
    } else {
        Ok(None)
    }
}

/// Convenience: satisfiability without a witness.
///
/// # Errors
///
/// As [`solve`].
pub fn satisfiable(formula: &Formula) -> Result<bool, AnalysisError> {
    Ok(solve(formula)?.is_some())
}

struct SolverCtx<'a> {
    atoms: &'a [Atom],
    index: &'a BTreeMap<(AttributeId, CmpOp, String), usize>,
    env: &'a TypeEnv,
}

impl SolverCtx<'_> {
    fn dpll(&self, formula: &Formula, assignment: &mut Vec<Option<bool>>) -> bool {
        if !self.theory_consistent(assignment) {
            return false;
        }
        match self.eval(formula, assignment) {
            PartialEval::Known(false) => false,
            PartialEval::Known(true) => true,
            PartialEval::Needs(i) => {
                for choice in [true, false] {
                    assignment[i] = Some(choice);
                    if self.dpll(formula, assignment) {
                        return true;
                    }
                }
                assignment[i] = None;
                false
            }
        }
    }

    fn atom_index(&self, atom: &Atom) -> usize {
        *self.index.get(&atom.key()).expect("atom was collected")
    }

    fn eval(&self, formula: &Formula, assignment: &[Option<bool>]) -> PartialEval {
        match formula {
            Formula::True => PartialEval::Known(true),
            Formula::False => PartialEval::Known(false),
            Formula::Atom(a) => match assignment[self.atom_index(a)] {
                Some(b) => PartialEval::Known(b),
                None => PartialEval::Needs(self.atom_index(a)),
            },
            Formula::Not(inner) => match self.eval(inner, assignment) {
                PartialEval::Known(b) => PartialEval::Known(!b),
                needs => needs,
            },
            Formula::And(parts) => {
                let mut first_needed: Option<usize> = None;
                for p in parts {
                    match self.eval(p, assignment) {
                        PartialEval::Known(false) => return PartialEval::Known(false),
                        PartialEval::Known(true) => {}
                        PartialEval::Needs(i) => {
                            first_needed.get_or_insert(i);
                        }
                    }
                }
                match first_needed {
                    None => PartialEval::Known(true),
                    Some(i) => PartialEval::Needs(i),
                }
            }
            Formula::Or(parts) => {
                let mut first_needed: Option<usize> = None;
                for p in parts {
                    match self.eval(p, assignment) {
                        PartialEval::Known(true) => return PartialEval::Known(true),
                        PartialEval::Known(false) => {}
                        PartialEval::Needs(i) => {
                            first_needed.get_or_insert(i);
                        }
                    }
                }
                match first_needed {
                    None => PartialEval::Known(false),
                    Some(i) => PartialEval::Needs(i),
                }
            }
        }
    }

    /// Per-attribute theory check of the currently assigned atoms.
    fn theory_consistent(&self, assignment: &[Option<bool>]) -> bool {
        let mut per_attr: BTreeMap<&AttributeId, Vec<(usize, bool)>> = BTreeMap::new();
        for (i, assigned) in assignment.iter().enumerate() {
            if let Some(polarity) = assigned {
                per_attr
                    .entry(&self.atoms[i].attr)
                    .or_default()
                    .push((i, *polarity));
            }
        }
        for (attr, entries) in per_attr {
            let ty = self.env.get(attr).expect("typed attribute");
            if self.witness_for(attr, ty, &entries).is_none() {
                return false;
            }
        }
        true
    }

    /// Finds a concrete value for `attr` satisfying the assigned atoms, or
    /// `None` when they are inconsistent.
    fn witness_for(
        &self,
        attr: &AttributeId,
        ty: ValueType,
        entries: &[(usize, bool)],
    ) -> Option<AttributeValue> {
        // Split into asserted equalities, disequalities and bounds.
        let mut eqs: Vec<&AttributeValue> = Vec::new();
        let mut nes: Vec<&AttributeValue> = Vec::new();
        // numeric bounds as (value, inclusive)
        let mut lowers: Vec<(f64, bool)> = Vec::new();
        let mut uppers: Vec<(f64, bool)> = Vec::new();

        for (i, polarity) in entries {
            let atom = &self.atoms[*i];
            debug_assert_eq!(&atom.attr, attr);
            let effective: Result<CmpOp, ()> = if *polarity {
                Ok(atom.op)
            } else {
                match atom.op.negate() {
                    NegatedOp::Ne => Err(()),
                    NegatedOp::Cmp(op) => Ok(op),
                }
            };
            match effective {
                Err(()) => nes.push(&atom.value),
                Ok(CmpOp::Eq) => eqs.push(&atom.value),
                Ok(CmpOp::Lt) => uppers.push((atom.value.as_f64()?, false)),
                Ok(CmpOp::Le) => uppers.push((atom.value.as_f64()?, true)),
                Ok(CmpOp::Gt) => lowers.push((atom.value.as_f64()?, false)),
                Ok(CmpOp::Ge) => lowers.push((atom.value.as_f64()?, true)),
            }
        }

        if let Some(first) = eqs.first() {
            // All equalities must agree, disequalities must miss, bounds hold.
            if eqs.iter().any(|v| *v != *first) {
                return None;
            }
            if nes.contains(first) {
                return None;
            }
            if let Some(x) = first.as_f64() {
                if !within(x, &lowers, &uppers) {
                    return None;
                }
            } else if !lowers.is_empty() || !uppers.is_empty() {
                return None;
            }
            return Some((*first).clone());
        }

        match ty {
            ValueType::Bool => {
                // Domain {true,false} minus disequalities.
                for candidate in [false, true] {
                    let c = AttributeValue::Bool(candidate);
                    if !nes.iter().any(|v| **v == c) {
                        return Some(c);
                    }
                }
                None
            }
            ValueType::Str => {
                // Infinite domain: any fresh string works.
                for i in 0.. {
                    let c = AttributeValue::Str(format!("w{i}"));
                    if !nes.iter().any(|v| **v == c) {
                        return Some(c);
                    }
                }
                unreachable!()
            }
            ValueType::Numeric { int_only } => numeric_witness(int_only, &lowers, &uppers, &nes),
        }
    }

    fn build_model(&self, assignment: &[Option<bool>]) -> Model {
        let mut per_attr: BTreeMap<&AttributeId, Vec<(usize, bool)>> = BTreeMap::new();
        for (i, assigned) in assignment.iter().enumerate() {
            if let Some(polarity) = assigned {
                per_attr
                    .entry(&self.atoms[i].attr)
                    .or_default()
                    .push((i, *polarity));
            }
        }
        let mut values = BTreeMap::new();
        for (attr, ty) in self.env.iter() {
            let entries = per_attr.get(attr).map(Vec::as_slice).unwrap_or(&[]);
            let v = self
                .witness_for(attr, ty, entries)
                .expect("theory was checked consistent");
            values.insert(attr.clone(), v);
        }
        Model { values }
    }
}

fn within(x: f64, lowers: &[(f64, bool)], uppers: &[(f64, bool)]) -> bool {
    for (lo, inclusive) in lowers {
        if *inclusive {
            if x < *lo {
                return false;
            }
        } else if x <= *lo {
            return false;
        }
    }
    for (hi, inclusive) in uppers {
        if *inclusive {
            if x > *hi {
                return false;
            }
        } else if x >= *hi {
            return false;
        }
    }
    true
}

fn numeric_witness(
    int_only: bool,
    lowers: &[(f64, bool)],
    uppers: &[(f64, bool)],
    nes: &[&AttributeValue],
) -> Option<AttributeValue> {
    let excluded: Vec<f64> = nes.iter().filter_map(|v| v.as_f64()).collect();
    if int_only {
        // Effective integer interval.
        let mut lo = i64::MIN / 4;
        for (v, inclusive) in lowers {
            let bound = if *inclusive {
                v.ceil() as i64
            } else {
                v.floor() as i64 + 1
            };
            lo = lo.max(bound);
        }
        let mut hi = i64::MAX / 4;
        for (v, inclusive) in uppers {
            let bound = if *inclusive {
                v.floor() as i64
            } else {
                v.ceil() as i64 - 1
            };
            hi = hi.min(bound);
        }
        if lo > hi {
            return None;
        }
        // At most |excluded| + 1 candidates needed.
        (lo..=hi)
            .take(excluded.len() + 1)
            .find(|&candidate| !excluded.contains(&(candidate as f64)))
            .map(AttributeValue::Int)
    } else {
        let lo = lowers
            .iter()
            .map(|(v, _)| *v)
            .fold(f64::NEG_INFINITY, f64::max);
        let hi = uppers.iter().map(|(v, _)| *v).fold(f64::INFINITY, f64::min);
        let lo_strict = lowers.iter().any(|(v, inc)| *v == lo && !*inc);
        let hi_strict = uppers.iter().any(|(v, inc)| *v == hi && !*inc);
        if lo > hi || (lo == hi && (lo_strict || hi_strict)) {
            return None;
        }
        // Pick a midpoint-ish value and nudge around exclusions.
        let base = if lo.is_infinite() && hi.is_infinite() {
            0.0
        } else if lo.is_infinite() {
            hi - 1.0
        } else if hi.is_infinite() {
            lo + 1.0
        } else {
            (lo + hi) / 2.0
        };
        let span = if lo.is_finite() && hi.is_finite() {
            (hi - lo) / 4.0
        } else {
            0.25
        };
        let mut candidates = vec![base];
        for k in 1..=excluded.len() + 2 {
            let delta = span / (k as f64 + 1.0);
            candidates.push(base + delta);
            candidates.push(base - delta);
        }
        if lo.is_finite() && !lo_strict {
            candidates.push(lo);
        }
        if hi.is_finite() && !hi_strict {
            candidates.push(hi);
        }
        candidates
            .into_iter()
            .find(|c| within(*c, lowers, uppers) && !excluded.iter().any(|e| e == c))
            .map(AttributeValue::Double)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_policy::attr::Category;

    fn attr(name: &str) -> AttributeId {
        AttributeId::new(Category::Subject, name)
    }

    fn atom(name: &str, op: CmpOp, v: impl Into<AttributeValue>) -> Formula {
        Formula::Atom(Atom::new(attr(name), op, v.into()))
    }

    #[test]
    fn trivial_formulas() {
        assert!(solve(&Formula::True).unwrap().is_some());
        assert!(solve(&Formula::False).unwrap().is_none());
    }

    #[test]
    fn single_atom_sat_with_witness() {
        let f = atom("role", CmpOp::Eq, "doctor");
        let model = solve(&f).unwrap().unwrap();
        assert_eq!(
            model.values[&attr("role")],
            AttributeValue::Str("doctor".into())
        );
    }

    #[test]
    fn contradictory_equalities_unsat() {
        let f = Formula::and(vec![
            atom("role", CmpOp::Eq, "a"),
            atom("role", CmpOp::Eq, "b"),
        ]);
        assert!(solve(&f).unwrap().is_none());
    }

    #[test]
    fn equality_vs_negated_equality_unsat() {
        let f = Formula::and(vec![
            atom("role", CmpOp::Eq, "a"),
            Formula::not(atom("role", CmpOp::Eq, "a")),
        ]);
        assert!(solve(&f).unwrap().is_none());
    }

    #[test]
    fn interval_reasoning() {
        // 3 < x < 7 is satisfiable
        let f = Formula::and(vec![atom("x", CmpOp::Gt, 3i64), atom("x", CmpOp::Lt, 7i64)]);
        let model = solve(&f).unwrap().unwrap();
        let v = model.values[&attr("x")].as_f64().unwrap();
        assert!(v > 3.0 && v < 7.0);
        // 7 < x < 3 is not
        let f = Formula::and(vec![atom("x", CmpOp::Gt, 7i64), atom("x", CmpOp::Lt, 3i64)]);
        assert!(solve(&f).unwrap().is_none());
    }

    #[test]
    fn integer_tight_interval() {
        // 2 < x < 4 has the single integer solution 3
        let f = Formula::and(vec![atom("x", CmpOp::Gt, 2i64), atom("x", CmpOp::Lt, 4i64)]);
        let model = solve(&f).unwrap().unwrap();
        assert_eq!(model.values[&attr("x")], AttributeValue::Int(3));
        // 2 < x < 3 has none
        let f = Formula::and(vec![atom("x", CmpOp::Gt, 2i64), atom("x", CmpOp::Lt, 3i64)]);
        assert!(solve(&f).unwrap().is_none());
        // …but for doubles it does
        let f = Formula::and(vec![atom("x", CmpOp::Gt, 2.0), atom("x", CmpOp::Lt, 3.0)]);
        assert!(solve(&f).unwrap().is_some());
    }

    #[test]
    fn integer_interval_with_exclusions() {
        // x in [1,3], x != 1, x != 2, x != 3 → unsat
        let f = Formula::and(vec![
            atom("x", CmpOp::Ge, 1i64),
            atom("x", CmpOp::Le, 3i64),
            Formula::not(atom("x", CmpOp::Eq, 1i64)),
            Formula::not(atom("x", CmpOp::Eq, 2i64)),
            Formula::not(atom("x", CmpOp::Eq, 3i64)),
        ]);
        assert!(solve(&f).unwrap().is_none());
        // leave a hole at 2
        let f = Formula::and(vec![
            atom("x", CmpOp::Ge, 1i64),
            atom("x", CmpOp::Le, 3i64),
            Formula::not(atom("x", CmpOp::Eq, 1i64)),
            Formula::not(atom("x", CmpOp::Eq, 3i64)),
        ]);
        let model = solve(&f).unwrap().unwrap();
        assert_eq!(model.values[&attr("x")], AttributeValue::Int(2));
    }

    #[test]
    fn bool_domain_exhaustion() {
        let f = Formula::and(vec![
            Formula::not(atom("b", CmpOp::Eq, true)),
            Formula::not(atom("b", CmpOp::Eq, false)),
        ]);
        assert!(solve(&f).unwrap().is_none());
    }

    #[test]
    fn string_disequalities_always_satisfiable() {
        let f = Formula::and(vec![
            Formula::not(atom("s", CmpOp::Eq, "w0")),
            Formula::not(atom("s", CmpOp::Eq, "w1")),
        ]);
        let model = solve(&f).unwrap().unwrap();
        let v = &model.values[&attr("s")];
        assert_ne!(*v, AttributeValue::Str("w0".into()));
        assert_ne!(*v, AttributeValue::Str("w1".into()));
    }

    #[test]
    fn disjunction_explores_branches() {
        let f = Formula::or(vec![
            Formula::and(vec![
                atom("x", CmpOp::Gt, 5i64),
                atom("x", CmpOp::Lt, 3i64), // unsat branch
            ]),
            atom("role", CmpOp::Eq, "admin"), // sat branch
        ]);
        let model = solve(&f).unwrap().unwrap();
        assert_eq!(
            model.values[&attr("role")],
            AttributeValue::Str("admin".into())
        );
    }

    #[test]
    fn model_converts_to_request() {
        let f = Formula::and(vec![
            atom("role", CmpOp::Eq, "doctor"),
            atom("age", CmpOp::Ge, 30i64),
        ]);
        let req = solve(&f).unwrap().unwrap().to_request();
        assert_eq!(req.bag(Category::Subject, "role").len(), 1);
        assert_eq!(req.bag(Category::Subject, "age").len(), 1);
    }

    #[test]
    fn mixed_int_double_bounds() {
        let f = Formula::and(vec![atom("x", CmpOp::Gt, 1i64), atom("x", CmpOp::Lt, 1.5)]);
        let model = solve(&f).unwrap().unwrap();
        let v = model.values[&attr("x")].as_f64().unwrap();
        assert!(v > 1.0 && v < 1.5);
    }

    #[test]
    fn type_conflicts_surface_as_errors() {
        let f = Formula::and(vec![atom("x", CmpOp::Eq, "s"), atom("x", CmpOp::Eq, 1i64)]);
        assert!(solve(&f).is_err());
    }

    #[test]
    fn equality_outside_bounds_unsat() {
        let f = Formula::and(vec![
            atom("x", CmpOp::Eq, 10i64),
            atom("x", CmpOp::Lt, 5i64),
        ]);
        assert!(solve(&f).unwrap().is_none());
    }
}
