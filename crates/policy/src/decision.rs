//! Access decisions, obligations and PDP responses.

use crate::attr::AttributeValue;
use drams_crypto::codec::{decode_seq, Decode, Encode, Reader, Writer};
use drams_crypto::CryptoError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The effect a rule produces when it applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Effect {
    /// Grant the request.
    Permit,
    /// Refuse the request.
    Deny,
}

impl Effect {
    /// The opposite effect.
    #[must_use]
    pub fn opposite(self) -> Effect {
        match self {
            Effect::Permit => Effect::Deny,
            Effect::Deny => Effect::Permit,
        }
    }
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Effect::Permit => f.write_str("permit"),
            Effect::Deny => f.write_str("deny"),
        }
    }
}

/// XACML 3.0 *extended* decision, distinguishing the potential effects an
/// `Indeterminate` could have produced. Combining algorithms operate on
/// this type; the wire-level [`Decision`] collapses the three flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExtDecision {
    /// Definitive permit.
    Permit,
    /// Definitive deny.
    Deny,
    /// The element does not apply to the request.
    NotApplicable,
    /// Error; had it evaluated, the result could only have been Permit.
    IndeterminateP,
    /// Error; had it evaluated, the result could only have been Deny.
    IndeterminateD,
    /// Error; the result could have been either.
    IndeterminateDP,
}

impl ExtDecision {
    /// Collapses to the four-valued wire decision.
    #[must_use]
    pub fn to_decision(self) -> Decision {
        match self {
            ExtDecision::Permit => Decision::Permit,
            ExtDecision::Deny => Decision::Deny,
            ExtDecision::NotApplicable => Decision::NotApplicable,
            _ => Decision::Indeterminate,
        }
    }

    /// The indeterminate flavour carrying this effect.
    #[must_use]
    pub fn indeterminate_for(effect: Effect) -> ExtDecision {
        match effect {
            Effect::Permit => ExtDecision::IndeterminateP,
            Effect::Deny => ExtDecision::IndeterminateD,
        }
    }
}

impl fmt::Display for ExtDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExtDecision::Permit => "Permit",
            ExtDecision::Deny => "Deny",
            ExtDecision::NotApplicable => "NotApplicable",
            ExtDecision::IndeterminateP => "Indeterminate{P}",
            ExtDecision::IndeterminateD => "Indeterminate{D}",
            ExtDecision::IndeterminateDP => "Indeterminate{DP}",
        };
        f.write_str(s)
    }
}

/// The four-valued XACML decision returned to the PEP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Decision {
    /// Grant.
    Permit,
    /// Refuse.
    Deny,
    /// No policy applied.
    NotApplicable,
    /// Evaluation error.
    Indeterminate,
}

impl Decision {
    fn code(self) -> u8 {
        match self {
            Decision::Permit => 0,
            Decision::Deny => 1,
            Decision::NotApplicable => 2,
            Decision::Indeterminate => 3,
        }
    }

    fn from_code(code: u8) -> Result<Decision, CryptoError> {
        match code {
            0 => Ok(Decision::Permit),
            1 => Ok(Decision::Deny),
            2 => Ok(Decision::NotApplicable),
            3 => Ok(Decision::Indeterminate),
            other => Err(CryptoError::Malformed(format!("decision code {other}"))),
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Decision::Permit => "Permit",
            Decision::Deny => "Deny",
            Decision::NotApplicable => "NotApplicable",
            Decision::Indeterminate => "Indeterminate",
        };
        f.write_str(s)
    }
}

/// An obligation attached to a decision: an action the PEP must discharge
/// when enforcing (e.g. "write an audit record", "notify the data owner").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Obligation {
    /// Obligation identifier, e.g. `log-access`.
    pub id: String,
    /// When this obligation applies.
    pub fulfill_on: Effect,
    /// Static arguments.
    pub args: Vec<AttributeValue>,
}

impl Obligation {
    /// Creates an obligation with no arguments.
    pub fn new(id: impl Into<String>, fulfill_on: Effect) -> Self {
        Obligation {
            id: id.into(),
            fulfill_on,
            args: Vec::new(),
        }
    }

    /// Adds an argument (builder style).
    #[must_use]
    pub fn with_arg(mut self, arg: impl Into<AttributeValue>) -> Self {
        self.args.push(arg.into());
        self
    }
}

/// The full response a PDP returns for one request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The four-valued decision.
    pub decision: Decision,
    /// The extended decision (diagnostic detail).
    pub extended: ExtDecision,
    /// Obligations the PEP must fulfil, in document order.
    pub obligations: Vec<Obligation>,
}

impl Response {
    /// Builds a response from an extended decision and obligations.
    #[must_use]
    pub fn new(extended: ExtDecision, obligations: Vec<Obligation>) -> Self {
        Response {
            decision: extended.to_decision(),
            extended,
            obligations,
        }
    }

    /// True when the decision is `Permit`.
    #[must_use]
    pub fn is_permit(&self) -> bool {
        self.decision == Decision::Permit
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.extended)?;
        if !self.obligations.is_empty() {
            write!(f, " [")?;
            for (i, o) in self.obligations.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", o.id)?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

// ---- canonical encoding ----------------------------------------------------

impl Encode for Effect {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            Effect::Permit => 0,
            Effect::Deny => 1,
        });
    }
}

impl Decode for Effect {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        match r.get_u8()? {
            0 => Ok(Effect::Permit),
            1 => Ok(Effect::Deny),
            other => Err(CryptoError::Malformed(format!("effect code {other}"))),
        }
    }
}

impl Encode for Decision {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.code());
    }
}

impl Decode for Decision {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Decision::from_code(r.get_u8()?)
    }
}

impl Encode for ExtDecision {
    fn encode(&self, w: &mut Writer) {
        let code = match self {
            ExtDecision::Permit => 0,
            ExtDecision::Deny => 1,
            ExtDecision::NotApplicable => 2,
            ExtDecision::IndeterminateP => 3,
            ExtDecision::IndeterminateD => 4,
            ExtDecision::IndeterminateDP => 5,
        };
        w.put_u8(code);
    }
}

impl Decode for ExtDecision {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        match r.get_u8()? {
            0 => Ok(ExtDecision::Permit),
            1 => Ok(ExtDecision::Deny),
            2 => Ok(ExtDecision::NotApplicable),
            3 => Ok(ExtDecision::IndeterminateP),
            4 => Ok(ExtDecision::IndeterminateD),
            5 => Ok(ExtDecision::IndeterminateDP),
            other => Err(CryptoError::Malformed(format!("ext decision code {other}"))),
        }
    }
}

impl Encode for Obligation {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.id);
        self.fulfill_on.encode(w);
        w.put_varint(self.args.len() as u64);
        for a in &self.args {
            a.encode(w);
        }
    }
}

impl Decode for Obligation {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let id = r.get_str()?;
        let fulfill_on = Effect::decode(r)?;
        let args = decode_seq(r)?;
        Ok(Obligation {
            id,
            fulfill_on,
            args,
        })
    }
}

impl Encode for Response {
    fn encode(&self, w: &mut Writer) {
        self.decision.encode(w);
        self.extended.encode(w);
        w.put_varint(self.obligations.len() as u64);
        for o in &self.obligations {
            o.encode(w);
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let decision = Decision::decode(r)?;
        let extended = ExtDecision::decode(r)?;
        let obligations = decode_seq(r)?;
        // Enforce internal consistency on decode: the four-valued decision
        // must match the extended one (canonicality).
        if extended.to_decision() != decision {
            return Err(CryptoError::Malformed(
                "response decision/extended mismatch".into(),
            ));
        }
        Ok(Response {
            decision,
            extended,
            obligations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drams_crypto::codec::{Decode, Encode};

    #[test]
    fn extended_collapses_correctly() {
        assert_eq!(ExtDecision::Permit.to_decision(), Decision::Permit);
        assert_eq!(ExtDecision::Deny.to_decision(), Decision::Deny);
        assert_eq!(
            ExtDecision::NotApplicable.to_decision(),
            Decision::NotApplicable
        );
        for d in [
            ExtDecision::IndeterminateP,
            ExtDecision::IndeterminateD,
            ExtDecision::IndeterminateDP,
        ] {
            assert_eq!(d.to_decision(), Decision::Indeterminate);
        }
    }

    #[test]
    fn indeterminate_for_effect() {
        assert_eq!(
            ExtDecision::indeterminate_for(Effect::Permit),
            ExtDecision::IndeterminateP
        );
        assert_eq!(
            ExtDecision::indeterminate_for(Effect::Deny),
            ExtDecision::IndeterminateD
        );
    }

    #[test]
    fn effect_opposite() {
        assert_eq!(Effect::Permit.opposite(), Effect::Deny);
        assert_eq!(Effect::Deny.opposite(), Effect::Permit);
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::new(
            ExtDecision::Permit,
            vec![
                Obligation::new("log-access", Effect::Permit).with_arg("audit"),
                Obligation::new("notify", Effect::Permit).with_arg(3i64),
            ],
        );
        let bytes = resp.to_canonical_bytes();
        assert_eq!(Response::from_canonical_bytes(&bytes).unwrap(), resp);
    }

    #[test]
    fn decode_rejects_inconsistent_response() {
        let resp = Response::new(ExtDecision::Permit, vec![]);
        let mut bytes = resp.to_canonical_bytes();
        bytes[0] = 1; // flip Decision to Deny, leave extended as Permit
        assert!(Response::from_canonical_bytes(&bytes).is_err());
    }

    #[test]
    fn response_digests_differ_on_decision() {
        // The monitor contract's response-tamper check depends on this.
        let permit = Response::new(ExtDecision::Permit, vec![]);
        let deny = Response::new(ExtDecision::Deny, vec![]);
        assert_ne!(permit.canonical_digest(), deny.canonical_digest());
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            ExtDecision::IndeterminateDP.to_string(),
            "Indeterminate{DP}"
        );
        let r = Response::new(
            ExtDecision::Deny,
            vec![Obligation::new("alert", Effect::Deny)],
        );
        assert_eq!(r.to_string(), "Deny [alert]");
    }
}
