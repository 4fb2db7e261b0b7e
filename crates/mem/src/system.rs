//! The per-core memory façade: MMU + cache hierarchy + DRAM.

use crate::cache::Domain;
use crate::hierarchy::{Hierarchy, HierarchyConfig, HierarchyStats};
use crate::mmu::{Access, Mmu, MmuStats, PagePermissions, PAGE_SIZE};
use guillotine_types::Result;

/// Configuration for a [`MemorySystem`].
#[derive(Debug, Clone, Copy)]
pub struct MemorySystemConfig {
    /// DRAM size in bytes.
    pub dram_size: usize,
    /// Cache geometry and latencies.
    pub hierarchy: HierarchyConfig,
    /// The security domain whose accesses this system serves.
    pub domain: Domain,
}

impl Default for MemorySystemConfig {
    fn default() -> Self {
        MemorySystemConfig {
            dram_size: 16 << 20,
            hierarchy: HierarchyConfig::default(),
            domain: Domain::Model,
        }
    }
}

/// The memory system attached to one core (or shared by several cores of the
/// same domain): virtual addresses go through the [`Mmu`], then through the
/// cache [`Hierarchy`], then to DRAM.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    mmu: Mmu,
    hierarchy: Hierarchy,
    domain: Domain,
}

impl MemorySystem {
    /// Creates a memory system from its configuration.
    pub fn new(config: MemorySystemConfig) -> Self {
        MemorySystem {
            mmu: Mmu::new(),
            hierarchy: Hierarchy::new(config.hierarchy, config.dram_size),
            domain: config.domain,
        }
    }

    /// The security domain of this memory system.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The MMU (for mapping set-up and lockdown).
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// Mutable MMU access.
    pub fn mmu_mut(&mut self) -> &mut Mmu {
        &mut self.mmu
    }

    /// The cache hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Mutable hierarchy access.
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.hierarchy
    }

    /// DRAM capacity in bytes.
    pub fn dram_size(&self) -> usize {
        self.hierarchy.dram().size()
    }

    /// Reads `size` bytes (1–8) at virtual address `vaddr`.
    pub fn read(&mut self, vaddr: u64, size: u8, kind: Access) -> Result<(u64, u64)> {
        let (paddr, mmu_lat) = self.mmu.translate(vaddr, kind)?;
        let (value, mem_lat) = self.hierarchy.read_u64(paddr, size, self.domain)?;
        Ok((value, mmu_lat + mem_lat))
    }

    /// Writes the low `size` bytes of `value` at virtual address `vaddr`.
    pub fn write(&mut self, vaddr: u64, size: u8, value: u64) -> Result<u64> {
        let (paddr, mmu_lat) = self.mmu.translate(vaddr, Access::Write)?;
        let mem_lat = self.hierarchy.write_u64(paddr, size, value, self.domain)?;
        Ok(mmu_lat + mem_lat)
    }

    /// Probes `vaddr`, returning only the latency (requires read permission).
    pub fn probe(&mut self, vaddr: u64) -> Result<u64> {
        let (paddr, mmu_lat) = self.mmu.translate(vaddr, Access::Read)?;
        Ok(mmu_lat + self.hierarchy.probe(paddr, self.domain))
    }

    /// Loads a byte image directly into physical DRAM (bypassing MMU and
    /// caches) and identity-maps it with the given permissions.
    pub fn load_image(&mut self, paddr: u64, image: &[u8], perms: PagePermissions) -> Result<()> {
        self.hierarchy.dram_mut().write(paddr, image)?;
        self.mmu
            .identity_map(paddr, image.len().max(1) as u64, perms)?;
        Ok(())
    }

    /// Identity-maps a range without writing anything (scratch/data regions).
    pub fn map_region(&mut self, paddr: u64, len: u64, perms: PagePermissions) -> Result<()> {
        self.mmu.identity_map(paddr, len, perms)
    }

    /// Reads physical memory without going through the MMU or caches — the
    /// hypervisor's private inspection bus (§3.2).
    pub fn inspect_physical(&self, paddr: u64, len: usize) -> Result<Vec<u8>> {
        self.hierarchy.dram().peek(paddr, len)
    }

    /// Writes physical memory without going through the MMU or caches — the
    /// hypervisor's private bus can also modify a halted core's DRAM.
    pub fn patch_physical(&mut self, paddr: u64, data: &[u8]) -> Result<()> {
        self.hierarchy.dram_mut().write(paddr, data)
    }

    /// Clears all microarchitectural state (caches + TLB), returning the
    /// number of cache lines plus TLB entries dropped.
    pub fn clear_microarchitectural_state(&mut self) -> usize {
        self.hierarchy.flush_all() + self.mmu.flush_tlb()
    }

    /// Wipes DRAM contents entirely (model destruction).
    pub fn wipe(&mut self) {
        self.hierarchy.dram_mut().wipe();
        self.hierarchy.flush_all();
        self.mmu.flush_tlb();
    }

    /// MMU statistics.
    pub fn mmu_stats(&self) -> MmuStats {
        self.mmu.stats()
    }

    /// Hierarchy statistics.
    pub fn hierarchy_stats(&self) -> HierarchyStats {
        self.hierarchy.stats()
    }

    /// Number of 4 KiB pages the DRAM holds.
    pub fn total_pages(&self) -> u64 {
        self.dram_size() as u64 / PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemorySystemConfig {
            dram_size: 1 << 20,
            hierarchy: HierarchyConfig::default(),
            domain: Domain::Model,
        })
    }

    #[test]
    fn load_image_and_fetch() {
        let mut s = sys();
        s.load_image(0x1000, &[0xAA, 0xBB, 0xCC, 0xDD], PagePermissions::RX)
            .unwrap();
        let (v, _) = s.read(0x1000, 4, Access::Execute).unwrap();
        assert_eq!(v, 0xDDCCBBAA);
    }

    #[test]
    fn write_requires_mapping_and_permission() {
        let mut s = sys();
        assert!(s.write(0x5000, 8, 1).is_err());
        s.map_region(0x5000, 0x1000, PagePermissions::R).unwrap();
        assert!(s.write(0x5000, 8, 1).is_err());
        s.map_region(0x6000, 0x1000, PagePermissions::RW).unwrap();
        assert!(s.write(0x6000, 8, 1).is_ok());
    }

    #[test]
    fn inspect_and_patch_bypass_translation() {
        let mut s = sys();
        s.patch_physical(0x2000, &[1, 2, 3]).unwrap();
        assert_eq!(s.inspect_physical(0x2000, 3).unwrap(), vec![1, 2, 3]);
        // No mapping exists, so a virtual read still faults.
        assert!(s.read(0x2000, 1, Access::Read).is_err());
    }

    #[test]
    fn probe_latency_shrinks_after_warmup() {
        let mut s = sys();
        s.map_region(0x8000, 0x1000, PagePermissions::RW).unwrap();
        let cold = s.probe(0x8000).unwrap();
        let warm = s.probe(0x8000).unwrap();
        assert!(cold > warm, "cold={cold} warm={warm}");
    }

    #[test]
    fn clear_microarchitectural_state_resets_timing() {
        let mut s = sys();
        s.map_region(0x8000, 0x1000, PagePermissions::RW).unwrap();
        s.probe(0x8000).unwrap();
        assert!(s.clear_microarchitectural_state() > 0);
        let after = s.probe(0x8000).unwrap();
        assert!(
            after > 100,
            "after flush the access should miss, got {after}"
        );
    }

    #[test]
    fn wipe_destroys_contents() {
        let mut s = sys();
        s.patch_physical(0x100, &[7; 8]).unwrap();
        s.wipe();
        assert_eq!(s.inspect_physical(0x100, 8).unwrap(), vec![0; 8]);
    }

    #[test]
    fn lockdown_via_system_blocks_self_modification() {
        let mut s = sys();
        s.load_image(0x1000, &[0; 64], PagePermissions::RX).unwrap();
        s.map_region(0x10000, 0x1000, PagePermissions::RW).unwrap();
        s.mmu_mut().lock_executable_regions();
        // Writing to the code page is denied.
        assert!(s.write(0x1000, 8, 0xDEAD).is_err());
        // Creating a new executable page is denied.
        assert!(s
            .mmu_mut()
            .map(0x20000, 0x20000, PagePermissions::RX)
            .is_err());
        // Ordinary data writes still work.
        assert!(s.write(0x10000, 8, 5).is_ok());
    }
}
