//! Security alerts raised by the monitor contract and the Analyser.

use crate::logent::ObservationPoint;
use drams_crypto::codec::{Decode, Encode, Reader, Writer};
use drams_crypto::CryptoError;
use drams_faas::des::SimTime;
use drams_faas::msg::CorrelationId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The event the monitor contract's epoch sweep emits for each point of
/// a timed-out group that has not arrived.
pub(crate) const MISSING_LOG_EVENT: &str = "alert.missing_log";

/// What kind of attack signature was detected.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlertKind {
    /// Request digests differ between PEP and PDP (paper threat: "access
    /// requests … are modified").
    RequestTampering,
    /// Response digests differ between PDP and PEP.
    ResponseTampering,
    /// An observation never arrived before the epoch timeout (suppressed
    /// probe or dropped log).
    MissingLog {
        /// Which observation is missing.
        point: ObservationPoint,
    },
    /// The same observation was submitted twice with different content
    /// (replay or log rewrite attempt).
    ConflictingObservation {
        /// The observation point affected.
        point: ObservationPoint,
    },
    /// The Analyser recomputed a different decision than the PDP logged
    /// ("the policies and the evaluation process are altered").
    PolicyViolation,
    /// The PDP evaluated against a policy version other than the
    /// authorised one.
    WrongPolicyVersion,
    /// The PEP enforced something other than the logged decision.
    EnforcementMismatch,
    /// A log entry's probe MAC failed — the Logging Interface itself is
    /// compromised (paper §I: resilience "to attacks targeting … the
    /// monitoring components").
    MonitorCompromise,
}

impl AlertKind {
    /// Compact code for the canonical encoding.
    fn code(&self) -> u8 {
        match self {
            AlertKind::RequestTampering => 0,
            AlertKind::ResponseTampering => 1,
            AlertKind::MissingLog { .. } => 2,
            AlertKind::ConflictingObservation { .. } => 3,
            AlertKind::PolicyViolation => 4,
            AlertKind::WrongPolicyVersion => 5,
            AlertKind::EnforcementMismatch => 6,
            AlertKind::MonitorCompromise => 7,
        }
    }

    /// The contract/analyser event name for this alert.
    #[must_use]
    pub(crate) fn event_name(&self) -> &'static str {
        match self {
            AlertKind::RequestTampering => "alert.request_tampering",
            AlertKind::ResponseTampering => "alert.response_tampering",
            AlertKind::MissingLog { .. } => MISSING_LOG_EVENT,
            AlertKind::ConflictingObservation { .. } => "alert.conflicting_observation",
            AlertKind::PolicyViolation => "alert.policy_violation",
            AlertKind::WrongPolicyVersion => "alert.wrong_policy_version",
            AlertKind::EnforcementMismatch => "alert.enforcement_mismatch",
            AlertKind::MonitorCompromise => "alert.monitor_compromise",
        }
    }
}

impl fmt::Display for AlertKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlertKind::MissingLog { point } => write!(f, "missing-log({point})"),
            AlertKind::ConflictingObservation { point } => {
                write!(f, "conflicting-observation({point})")
            }
            other => f.write_str(match other {
                AlertKind::RequestTampering => "request-tampering",
                AlertKind::ResponseTampering => "response-tampering",
                AlertKind::PolicyViolation => "policy-violation",
                AlertKind::WrongPolicyVersion => "wrong-policy-version",
                AlertKind::EnforcementMismatch => "enforcement-mismatch",
                AlertKind::MonitorCompromise => "monitor-compromise",
                _ => unreachable!(),
            }),
        }
    }
}

/// A security alert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// The detected signature.
    pub kind: AlertKind,
    /// The affected access transaction.
    pub correlation: CorrelationId,
    /// Virtual time at which the detector fired.
    pub detected_at: SimTime,
    /// Human-readable detail.
    pub detail: String,
}

impl Alert {
    /// Creates an alert.
    #[must_use]
    pub fn new(
        kind: AlertKind,
        correlation: CorrelationId,
        detected_at: SimTime,
        detail: impl Into<String>,
    ) -> Self {
        Alert {
            kind,
            correlation,
            detected_at,
            detail: detail.into(),
        }
    }

    /// The correlation of a `MissingLog` alert, read in place from its
    /// canonical encoding; `None` for the bytes of any other alert.
    pub(crate) fn missing_log_correlation(bytes: &[u8]) -> Option<CorrelationId> {
        let mut r = Reader::new(bytes);
        let code = r.get_u8().ok()?;
        let _point = r.get_u8().ok()?;
        let missing = AlertKind::MissingLog {
            point: ObservationPoint::PepRequest,
        };
        (code == missing.code()).then_some(())?;
        r.get_u64().ok().map(CorrelationId)
    }
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at t={}µs: {}",
            self.kind, self.correlation, self.detected_at, self.detail
        )
    }
}

impl Encode for Alert {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.kind.code());
        match &self.kind {
            AlertKind::MissingLog { point } | AlertKind::ConflictingObservation { point } => {
                w.put_u8(point.code());
            }
            _ => {}
        }
        w.put_u64(self.correlation.0);
        w.put_u64(self.detected_at);
        w.put_str(&self.detail);
    }
}

impl Decode for Alert {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let code = r.get_u8()?;
        let kind = match code {
            0 => AlertKind::RequestTampering,
            1 => AlertKind::ResponseTampering,
            2 => AlertKind::MissingLog {
                point: ObservationPoint::from_code(r.get_u8()?)?,
            },
            3 => AlertKind::ConflictingObservation {
                point: ObservationPoint::from_code(r.get_u8()?)?,
            },
            4 => AlertKind::PolicyViolation,
            5 => AlertKind::WrongPolicyVersion,
            6 => AlertKind::EnforcementMismatch,
            7 => AlertKind::MonitorCompromise,
            other => return Err(CryptoError::Malformed(format!("alert kind {other}"))),
        };
        Ok(Alert {
            kind,
            correlation: CorrelationId(r.get_u64()?),
            detected_at: r.get_u64()?,
            detail: r.get_str()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<AlertKind> {
        vec![
            AlertKind::RequestTampering,
            AlertKind::ResponseTampering,
            AlertKind::MissingLog {
                point: ObservationPoint::PdpRequest,
            },
            AlertKind::ConflictingObservation {
                point: ObservationPoint::PepResponse,
            },
            AlertKind::PolicyViolation,
            AlertKind::WrongPolicyVersion,
            AlertKind::EnforcementMismatch,
            AlertKind::MonitorCompromise,
        ]
    }

    #[test]
    fn codec_round_trip_all_kinds() {
        for kind in all_kinds() {
            let alert = Alert::new(kind.clone(), CorrelationId(5), 100, "details");
            let bytes = alert.to_canonical_bytes();
            assert_eq!(
                Alert::from_canonical_bytes(&bytes).unwrap(),
                alert,
                "{kind:?}"
            );
            let missing = matches!(kind, AlertKind::MissingLog { .. });
            assert_eq!(
                Alert::missing_log_correlation(&bytes),
                missing.then_some(CorrelationId(5)),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn event_names_are_distinct() {
        let names: std::collections::HashSet<&str> =
            all_kinds().iter().map(AlertKind::event_name).collect();
        assert_eq!(names.len(), all_kinds().len());
    }

    #[test]
    fn display_is_informative() {
        let alert = Alert::new(
            AlertKind::MissingLog {
                point: ObservationPoint::PepRequest,
            },
            CorrelationId(9),
            77,
            "probe silenced",
        );
        let s = alert.to_string();
        assert!(s.contains("missing-log"));
        assert!(s.contains("corr-9"));
        assert!(s.contains("probe silenced"));
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        assert!(Alert::from_canonical_bytes(&[99]).is_err());
    }
}
