//! The traditional-hypervisor baseline Guillotine is compared against.
//!
//! Every architectural claim in the paper is comparative: a *traditional*
//! virtualization stack shares cores and caches between guest and hypervisor
//! (enabling microarchitectural side channels), exposes devices directly to
//! guests for performance (SR-IOV), does not lock guest MMU configurations,
//! and does not throttle guest-raised interrupts. [`TraditionalHypervisor`]
//! implements exactly that stack over the same simulated hardware
//! ([`guillotine_hw::Machine`] in its `shared_hierarchy` configuration), so
//! experiments E1–E4 and the escape campaign (E12) can hold the substrate
//! constant and vary only the architecture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use guillotine_hw::{IoDescriptor, Machine, MachineConfig, RunEvent, ThrottleConfig};
use guillotine_isa::Program;
use guillotine_mem::{Domain, PagePermissions};
use guillotine_types::{MachineId, Result, SimInstant};

/// Configuration of the baseline hypervisor.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// The machine id to use.
    pub machine: MachineId,
    /// Instruction budget per guest scheduling quantum.
    pub quantum_instructions: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            machine: MachineId::new(900),
            quantum_instructions: 10_000,
        }
    }
}

/// A conventional (non-Guillotine) hypervisor.
///
/// Differences from [`guillotine_hv::SoftwareHypervisor`], each of which maps
/// to one of the paper's arguments:
///
/// * guest and hypervisor share one cache hierarchy (side channels exist),
/// * the guest's MMU is never locked (runtime code injection is possible),
/// * guests get direct device access ([`TraditionalHypervisor::direct_io`]),
///   so IO is fast but unmediated and unaudited,
/// * interrupts are not throttled (floods reach the hypervisor),
/// * there is no misbehavior detector and no attested self-identification.
pub struct TraditionalHypervisor {
    config: BaselineConfig,
    machine: Machine,
    io_served: u64,
}

impl TraditionalHypervisor {
    /// Creates a baseline hypervisor on a shared-hierarchy machine.
    pub fn new(config: BaselineConfig) -> Self {
        let mut machine_config = MachineConfig::traditional(config.machine);
        machine_config.throttle = ThrottleConfig::unthrottled();
        TraditionalHypervisor {
            machine: Machine::new(machine_config),
            io_served: 0,
            config,
        }
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Loads a guest image *without* locking the MMU, and with the guest's
    /// code pages left writable (the common RWX convenience mapping that
    /// traditional stacks tolerate).
    pub fn install_guest(&mut self, program: &Program, data_region: u64) -> Result<()> {
        self.machine
            .load_model_program(program, data_region, false)?;
        // Re-map the code pages writable as well as executable: traditional
        // hypervisors leave guest-internal memory management entirely to the
        // guest, including W+X mappings.
        let base = program.base();
        let len = program.len() as u64;
        self.machine.model_memory_mut().map_region(
            base,
            len.max(1),
            PagePermissions {
                read: true,
                write: true,
                execute: true,
            },
        )?;
        Ok(())
    }

    /// Runs the guest for one quantum.
    pub fn run_quantum(&mut self, core_idx: usize, now: SimInstant) -> Result<RunEvent> {
        self.machine
            .run_model_core(core_idx, self.config.quantum_instructions, now)
    }

    /// Direct (SR-IOV-style) device access: the guest's request is handled
    /// immediately with no hypervisor interposition, no capability check and
    /// no audit record. Returns the echoed payload.
    pub fn direct_io(&mut self, request: &IoDescriptor) -> Vec<u8> {
        self.io_served += 1;
        request.payload.clone()
    }

    /// Number of direct IO requests served.
    pub fn io_served(&self) -> u64 {
        self.io_served
    }

    /// Simulates the hypervisor performing secret-dependent work on the
    /// shared hierarchy: it touches one cache set per secret bit that is set.
    ///
    /// On a shared-hierarchy machine these accesses evict guest-primed lines,
    /// which is what a prime+probe attacker measures (experiment E1).
    pub fn hypervisor_secret_work(&mut self, secret: u64) {
        for bit in 0..64u64 {
            if secret & (1 << bit) != 0 {
                // One distinct L1 set per bit: stride of one line (64 B) per
                // set across the 64-set L1.
                let addr = 0x100_0000 + bit * 64;
                self.machine
                    .model_memory_mut()
                    .hierarchy_mut()
                    .probe(addr, Domain::Hypervisor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guillotine_hw::IoOpcode;
    use guillotine_isa::asm::assemble_at;
    use guillotine_types::PortId;

    fn now() -> SimInstant {
        SimInstant::ZERO
    }

    #[test]
    fn guest_self_modification_succeeds_on_the_baseline() {
        let mut hv = TraditionalHypervisor::new(BaselineConfig::default());
        // The guest overwrites its own second instruction with `halt`
        // (opcode 36 << 26) and then runs into it: classic self-modification.
        let program = assemble_at(
            "
            li x1, 0x100c         # address of the target instruction
            li x2, 36
            slli x2, x2, 26
            stw x2, x1, 0
            nop                    # this slot is at 0x100c after li expansion
            nop
            halt
            ",
            0x1000,
        )
        .unwrap();
        hv.install_guest(&program, 0x10000).unwrap();
        let event = hv.run_quantum(0, now()).unwrap();
        // No fault: the write to the code page succeeded (unlike Guillotine).
        assert!(
            matches!(event, RunEvent::Halted | RunEvent::Running),
            "baseline should tolerate self-modification, got {event:?}"
        );
        assert_eq!(hv.machine().model_core(0).unwrap().fault_count(), 0);
    }

    #[test]
    fn direct_io_bypasses_any_mediation() {
        let mut hv = TraditionalHypervisor::new(BaselineConfig::default());
        let req = IoDescriptor::request(PortId::new(0), IoOpcode::Send, 1, b"raw".to_vec());
        let resp = hv.direct_io(&req);
        assert_eq!(resp, b"raw");
        assert_eq!(hv.io_served(), 1);
        // No audit events were generated for the IO.
        assert_eq!(
            hv.machine().events().count_matching(|e| matches!(
                e.kind,
                guillotine_types::EventKind::PortTraffic { .. }
            )),
            0
        );
    }

    #[test]
    fn secret_work_perturbs_the_shared_hierarchy() {
        let mut hv = TraditionalHypervisor::new(BaselineConfig::default());
        let before = hv.machine().model_visible_cross_domain_evictions();
        // Guest primes the sets the hypervisor will later touch.
        for bit in 0..64u64 {
            let addr = 0x100_0000 + bit * 64;
            hv.machine_mut()
                .model_memory_mut()
                .hierarchy_mut()
                .probe(addr, Domain::Model);
        }
        hv.hypervisor_secret_work(0xFFFF_FFFF_FFFF_FFFF);
        assert!(hv.machine().model_visible_cross_domain_evictions() >= before);
    }
}
