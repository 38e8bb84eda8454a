//! The FaaS federation model: clouds, sections, tenants and links.
//!
//! Mirrors Figure 1 of the paper: member clouds contribute *tenants*
//! (virtual spaces of computing resources) carved into *sections*; a
//! jointly-owned *infrastructure tenant* hosts the PDP, the PRP and the
//! Analyser; PEPs sit at each tenant's edge.

use crate::des::SimTime;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a member cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CloudId(pub u32);

/// Identifier of a tenant. Tenant 0 is by convention the infrastructure
/// tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The infrastructure tenant shared by all federation clouds.
    pub const INFRASTRUCTURE: TenantId = TenantId(0);

    /// True for the infrastructure tenant.
    #[must_use]
    pub fn is_infrastructure(&self) -> bool {
        *self == Self::INFRASTRUCTURE
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infrastructure() {
            write!(f, "tenant-infra")
        } else {
            write!(f, "tenant-{}", self.0)
        }
    }
}

/// Identifier of a PEP instance (one per member tenant edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PepId(pub u32);

impl fmt::Display for PepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pep-{}", self.0)
    }
}

/// A latency model for one link: base plus uniformly-distributed jitter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Fixed one-way base latency.
    pub base: SimTime,
    /// Maximum additional uniform jitter.
    pub jitter: SimTime,
}

impl LatencyModel {
    /// Samples one traversal time.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        if self.jitter == 0 {
            self.base
        } else {
            self.base + rng.gen_range(0..=self.jitter)
        }
    }
}

/// Description of one member tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// The tenant id.
    pub id: TenantId,
    /// The owning cloud.
    pub cloud: CloudId,
    /// The PEP guarding this tenant's edge.
    pub pep: PepId,
    /// Service names hosted in this tenant (the protected resources).
    pub services: Vec<String>,
}

/// The whole federation topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationSpec {
    /// Member tenants (infrastructure tenant excluded).
    pub tenants: Vec<TenantSpec>,
}

impl FederationSpec {
    /// Builds a symmetric federation: `clouds` member clouds with
    /// `tenants_per_cloud` tenants each and `services_per_tenant` services
    /// per tenant.
    #[must_use]
    pub fn symmetric(clouds: u32, tenants_per_cloud: u32, services_per_tenant: u32) -> Self {
        let mut tenants = Vec::new();
        let mut next_tenant = 1u32; // 0 is the infrastructure tenant
        for cloud in 0..clouds {
            for _ in 0..tenants_per_cloud {
                let id = TenantId(next_tenant);
                tenants.push(TenantSpec {
                    id,
                    cloud: CloudId(cloud),
                    pep: PepId(next_tenant),
                    services: (0..services_per_tenant)
                        .map(|s| format!("svc-{next_tenant}-{s}"))
                        .collect(),
                });
                next_tenant += 1;
            }
        }
        FederationSpec { tenants }
    }

    /// Number of member tenants.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn symmetric_topology_counts() {
        let spec = FederationSpec::symmetric(3, 2, 4);
        assert_eq!(spec.tenant_count(), 6);
        let services: usize = spec.tenants.iter().map(|t| t.services.len()).sum();
        assert_eq!(services, 24);
        // Tenant ids start at 1 (0 = infrastructure).
        assert!(spec.tenants.iter().all(|t| !t.id.is_infrastructure()));
    }

    #[test]
    fn latency_sampling_is_bounded() {
        let model = LatencyModel {
            base: 100,
            jitter: 50,
        };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let l = model.sample(&mut rng);
            assert!((100..=150).contains(&l));
        }
    }

    #[test]
    fn infrastructure_tenant_display() {
        assert_eq!(TenantId::INFRASTRUCTURE.to_string(), "tenant-infra");
        assert_eq!(TenantId(3).to_string(), "tenant-3");
        assert_eq!(PepId(3).to_string(), "pep-3");
    }
}
