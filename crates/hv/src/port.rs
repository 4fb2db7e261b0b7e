//! The Guillotine port API: capabilities mediating all model IO.
//!
//! "Guillotine ports are conceptually similar to Mach ports. Each port is a
//! capability that is granted by the software-level hypervisor and which
//! enables a model core to interact with a specific instance of a specific
//! device type." (§3.3) Ports are the only channel between a model and the
//! outside world: the paper explicitly disallows SR-IOV-style direct device
//! assignment so the hypervisor can synchronously monitor every interaction.

use guillotine_types::{DeviceId, GuillotineError, ModelId, PortId, Result};
use std::collections::BTreeMap;

/// The device classes a port can front.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// A network interface (reaches the outside world through the gateway).
    Network,
    /// Block/object storage.
    Storage,
    /// A GPU or other computational accelerator.
    Gpu,
    /// A retrieval-augmented-generation document database.
    RagDatabase,
    /// A physical actuator (industrial equipment and the like).
    Actuator,
}

/// Per-port restrictions, tightened by the probation isolation level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortRestrictions {
    /// Whether the port may be used at all.
    pub enabled: bool,
    /// Maximum payload bytes per request (None = unlimited).
    pub max_request_bytes: Option<usize>,
    /// Maximum total outbound bytes over the port's lifetime (None =
    /// unlimited).
    pub outbound_byte_budget: Option<u64>,
    /// Whether every payload must be copied to the audit log verbatim
    /// (probation turns this on).
    pub verbose_logging: bool,
}

impl Default for PortRestrictions {
    fn default() -> Self {
        PortRestrictions {
            enabled: true,
            max_request_bytes: None,
            outbound_byte_budget: None,
            verbose_logging: false,
        }
    }
}

impl PortRestrictions {
    /// The restriction profile probation applies to every port.
    pub fn probation() -> Self {
        PortRestrictions {
            enabled: true,
            max_request_bytes: Some(4096),
            outbound_byte_budget: Some(1 << 20),
            verbose_logging: true,
        }
    }
}

/// One granted port capability.
#[derive(Debug, Clone, PartialEq)]
pub struct PortCapability {
    /// The capability's identifier (what the model names in descriptors).
    pub id: PortId,
    /// The device class.
    pub kind: PortKind,
    /// The concrete device instance behind the port.
    pub device: DeviceId,
    /// The model the capability was granted to.
    pub granted_to: ModelId,
    /// Whether the capability has been revoked.
    pub revoked: bool,
    /// Current restrictions.
    pub restrictions: PortRestrictions,
    /// Outbound bytes consumed against the budget.
    pub outbound_bytes_used: u64,
}

/// The hypervisor's table of granted ports.
#[derive(Debug, Clone, Default)]
pub struct PortRegistry {
    ports: BTreeMap<PortId, PortCapability>,
    next_id: u32,
}

impl PortRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        PortRegistry::default()
    }

    /// Grants a new port capability to `model` for `device`.
    pub fn grant(&mut self, model: ModelId, kind: PortKind, device: DeviceId) -> PortId {
        let id = PortId::new(self.next_id);
        self.next_id += 1;
        self.ports.insert(
            id,
            PortCapability {
                id,
                kind,
                device,
                granted_to: model,
                revoked: false,
                restrictions: PortRestrictions::default(),
                outbound_bytes_used: 0,
            },
        );
        id
    }

    /// Looks up a capability.
    pub fn get(&self, id: PortId) -> Option<&PortCapability> {
        self.ports.get(&id)
    }

    /// Number of live (non-revoked) ports.
    pub fn live_count(&self) -> usize {
        self.ports.values().filter(|p| !p.revoked).count()
    }

    /// All port ids ever granted.
    pub fn all_ids(&self) -> Vec<PortId> {
        self.ports.keys().copied().collect()
    }

    /// Revokes one capability.
    pub fn revoke(&mut self, id: PortId) -> Result<()> {
        match self.ports.get_mut(&id) {
            Some(p) => {
                p.revoked = true;
                Ok(())
            }
            None => Err(GuillotineError::PortError {
                port: Some(id),
                reason: "unknown port".into(),
            }),
        }
    }

    /// Revokes every capability (severed isolation and above).
    pub fn revoke_all(&mut self) -> usize {
        let mut n = 0;
        for p in self.ports.values_mut() {
            if !p.revoked {
                p.revoked = true;
                n += 1;
            }
        }
        n
    }

    /// Applies a restriction profile to every live port (probation).
    pub fn restrict_all(&mut self, restrictions: PortRestrictions) -> usize {
        let mut n = 0;
        for p in self.ports.values_mut() {
            if !p.revoked {
                p.restrictions = restrictions;
                n += 1;
            }
        }
        n
    }

    /// Removes all restrictions from live ports (back to standard).
    pub fn unrestrict_all(&mut self) -> usize {
        self.restrict_all(PortRestrictions::default())
    }

    /// Re-enables previously revoked ports (used when the console relaxes
    /// isolation from severed back to probation/standard).
    pub fn restore_all(&mut self) -> usize {
        let mut n = 0;
        for p in self.ports.values_mut() {
            if p.revoked {
                p.revoked = false;
                n += 1;
            }
        }
        n
    }

    /// Validates that `model` may send `payload_len` bytes through port `id`,
    /// and charges the outbound budget. Returns the capability on success.
    pub fn authorize_use(
        &mut self,
        id: PortId,
        model: ModelId,
        payload_len: usize,
        outbound: bool,
    ) -> Result<&PortCapability> {
        let cap = self.ports.get_mut(&id).ok_or(GuillotineError::PortError {
            port: Some(id),
            reason: "unknown port".into(),
        })?;
        if cap.revoked {
            return Err(GuillotineError::PortError {
                port: Some(id),
                reason: "port capability has been revoked".into(),
            });
        }
        if cap.granted_to != model {
            return Err(GuillotineError::PortError {
                port: Some(id),
                reason: format!("port belongs to {}, not {}", cap.granted_to, model),
            });
        }
        if !cap.restrictions.enabled {
            return Err(GuillotineError::PortError {
                port: Some(id),
                reason: "port disabled by restriction".into(),
            });
        }
        if let Some(max) = cap.restrictions.max_request_bytes {
            if payload_len > max {
                return Err(GuillotineError::PortError {
                    port: Some(id),
                    reason: format!("request of {payload_len} bytes exceeds restriction of {max}"),
                });
            }
        }
        if outbound {
            if let Some(budget) = cap.restrictions.outbound_byte_budget {
                if cap.outbound_bytes_used + payload_len as u64 > budget {
                    return Err(GuillotineError::PortError {
                        port: Some(id),
                        reason: "outbound byte budget exhausted".into(),
                    });
                }
            }
            cap.outbound_bytes_used += payload_len as u64;
        }
        Ok(&*cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> (PortRegistry, PortId) {
        let mut r = PortRegistry::new();
        let id = r.grant(ModelId::new(1), PortKind::Network, DeviceId::new(0));
        (r, id)
    }

    #[test]
    fn grant_and_authorize() {
        let (mut r, id) = registry();
        assert_eq!(r.live_count(), 1);
        let cap = r.authorize_use(id, ModelId::new(1), 128, true).unwrap();
        assert_eq!(cap.kind, PortKind::Network);
    }

    #[test]
    fn capabilities_are_model_specific() {
        let (mut r, id) = registry();
        let err = r.authorize_use(id, ModelId::new(2), 10, false).unwrap_err();
        assert!(err.to_string().contains("belongs to"));
    }

    #[test]
    fn revoked_ports_refuse_use() {
        let (mut r, id) = registry();
        r.revoke(id).unwrap();
        assert!(r.authorize_use(id, ModelId::new(1), 10, false).is_err());
        assert_eq!(r.live_count(), 0);
        assert_eq!(r.restore_all(), 1);
        assert!(r.authorize_use(id, ModelId::new(1), 10, false).is_ok());
    }

    #[test]
    fn unknown_port_is_rejected() {
        let (mut r, _) = registry();
        assert!(r
            .authorize_use(PortId::new(99), ModelId::new(1), 1, false)
            .is_err());
        assert!(r.revoke(PortId::new(99)).is_err());
    }

    #[test]
    fn probation_restrictions_cap_request_size_and_budget() {
        let (mut r, id) = registry();
        r.restrict_all(PortRestrictions::probation());
        assert!(r.authorize_use(id, ModelId::new(1), 8192, true).is_err());
        // Exhaust the 1 MiB outbound budget in 4 KiB slices.
        for _ in 0..256 {
            r.authorize_use(id, ModelId::new(1), 4096, true).unwrap();
        }
        assert!(r.authorize_use(id, ModelId::new(1), 4096, true).is_err());
        // Inbound traffic is not charged against the outbound budget.
        assert!(r.authorize_use(id, ModelId::new(1), 4096, false).is_ok());
        r.unrestrict_all();
        assert!(r.authorize_use(id, ModelId::new(1), 1 << 20, true).is_ok());
    }

    #[test]
    fn revoke_all_covers_every_port() {
        let mut r = PortRegistry::new();
        for _ in 0..5 {
            r.grant(ModelId::new(1), PortKind::Storage, DeviceId::new(1));
        }
        assert_eq!(r.revoke_all(), 5);
        assert_eq!(r.live_count(), 0);
    }
}
