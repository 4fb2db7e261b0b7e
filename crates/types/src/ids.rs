//! Strongly-typed identifiers for Guillotine components.
//!
//! The paper's architecture (Figure 1) contains many distinct component
//! classes — cores, machines, ports, administrators, certificates — and using
//! newtype identifiers prevents an entire class of cross-wiring bugs (e.g.
//! handing a model-core id to an API that expects a hypervisor-core id is
//! caught by [`CoreKind`] checks at the hardware layer, and handing a port id
//! where an admin id is expected is caught by the type system).

use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an identifier from a raw index.
            pub const fn new(raw: u32) -> Self {
                $name(raw)
            }

            /// Returns the raw index behind this identifier.
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                $name(raw)
            }
        }
    };
}

define_id!(
    /// Identifies a physical CPU core (model or hypervisor) within a machine.
    CoreId,
    "core"
);
define_id!(
    /// Identifies a machine (a board with model cores, hypervisor cores and
    /// their disjoint memory hierarchies) within a datacenter.
    MachineId,
    "machine"
);
define_id!(
    /// Identifies a Guillotine port capability granted to a model.
    PortId,
    "port"
);
define_id!(
    /// Identifies an IO device (NIC, storage, GPU, actuator) attached to the
    /// hypervisor side of a machine.
    DeviceId,
    "dev"
);
define_id!(
    /// Identifies a human administrator seat on the control console.
    AdminId,
    "admin"
);
define_id!(
    /// Identifies an X.509-style certificate in the simulated PKI.
    CertId,
    "cert"
);
define_id!(
    /// Identifies a sandboxed model instance.
    ModelId,
    "model"
);
define_id!(
    /// Identifies an inference request flowing through a model service.
    RequestId,
    "req"
);
define_id!(
    /// Identifies a hardware watchpoint installed on a model core.
    WatchpointId,
    "wp"
);
define_id!(
    /// Identifies a requester session across the serving front door; all
    /// requests of one conversation share a session id so detector verdicts
    /// and audit records can be correlated per user.
    SessionId,
    "sess"
);
define_id!(
    /// Identifies a network connection established by the software hypervisor.
    ConnectionId,
    "conn"
);
define_id!(
    /// Identifies one admitted request inside the admission queue: the
    /// receipt handed back by an `Enqueued` admission decision, and the
    /// name a shed decision uses to say *which* queued request was dropped.
    TicketId,
    "tkt"
);

/// Distinguishes the two classes of cores in Guillotine silicon.
///
/// The paper (§3.2) requires that hypervisor code runs only on hypervisor
/// cores and, post-initialization, model cores run only model code; the two
/// classes have physically disjoint memory hierarchies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// A core that runs the Guillotine software-level hypervisor.
    Hypervisor,
    /// A core that runs sandboxed model code.
    Model,
}

impl fmt::Display for CoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreKind::Hypervisor => write!(f, "hypervisor"),
            CoreKind::Model => write!(f, "model"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_round_trip_raw_values() {
        let c = CoreId::new(7);
        assert_eq!(c.raw(), 7);
        assert_eq!(CoreId::from(7u32), c);
    }

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(format!("{}", PortId::new(3)), "port3");
        assert_eq!(format!("{}", AdminId::new(0)), "admin0");
        assert_eq!(format!("{}", MachineId::new(12)), "machine12");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(ModelId::new(1));
        set.insert(ModelId::new(2));
        set.insert(ModelId::new(1));
        assert_eq!(set.len(), 2);
        assert!(ModelId::new(1) < ModelId::new(2));
    }

    #[test]
    fn core_kind_displays_lowercase() {
        assert_eq!(CoreKind::Hypervisor.to_string(), "hypervisor");
        assert_eq!(CoreKind::Model.to_string(), "model");
    }
}
