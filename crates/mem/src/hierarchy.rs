//! A multi-level cache hierarchy over a DRAM module.

use crate::cache::{Cache, CacheConfig, CacheStats, Domain};
use crate::dram::Dram;
use guillotine_types::Result;

/// Geometry of a full L1/L2/L3 + DRAM hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// L3 geometry.
    pub l3: CacheConfig,
    /// DRAM access latency in cycles.
    pub dram_latency: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheConfig::l1(),
            l2: CacheConfig::l2(),
            l3: CacheConfig::l3(),
            dram_latency: Dram::DEFAULT_LATENCY,
        }
    }
}

/// Per-level statistics snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchyStats {
    /// L1 statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// L3 statistics.
    pub l3: CacheStats,
    /// Total accesses served.
    pub accesses: u64,
    /// Total latency accumulated over all accesses.
    pub total_latency: u64,
}

/// An L1/L2/L3 cache stack in front of a [`Dram`].
///
/// The hierarchy owns its DRAM. In a Guillotine machine each domain (model,
/// hypervisor) gets its *own* [`Hierarchy`]; in the traditional baseline the
/// L3 (or the whole hierarchy) is shared between domains, which is what makes
/// cache side channels possible.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
    l3: Cache,
    dram: Dram,
    accesses: u64,
    total_latency: u64,
}

impl Hierarchy {
    /// Creates a hierarchy with the given geometry over a DRAM of
    /// `dram_size` bytes.
    pub fn new(config: HierarchyConfig, dram_size: usize) -> Self {
        Hierarchy {
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            dram: Dram::with_latency(dram_size, config.dram_latency),
            accesses: 0,
            total_latency: 0,
        }
    }

    /// Read-only access to the underlying DRAM.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable access to the underlying DRAM (used by loaders and by the
    /// hypervisor's private inspection bus; these paths bypass the caches on
    /// purpose, since the inspection bus is a separate physical path in the
    /// paper's design).
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// Performs a cached access and returns the total latency in cycles.
    ///
    /// On a miss the line is installed in every level (inclusive hierarchy).
    /// Data movement itself goes directly to DRAM — the caches model *timing
    /// and occupancy*, not coherence payloads, which is all the experiments
    /// need.
    pub fn access_timed(&mut self, addr: u64, domain: Domain, write: bool) -> u64 {
        self.accesses += 1;
        let mut latency = 0;
        let r1 = self.l1.access(addr, domain, write);
        latency += self.l1.config().hit_latency;
        if !r1.hit {
            let r2 = self.l2.access(addr, domain, write);
            latency += self.l2.config().hit_latency;
            if !r2.hit {
                let r3 = self.l3.access(addr, domain, write);
                latency += self.l3.config().hit_latency;
                if !r3.hit {
                    latency += self.dram.latency();
                }
            }
        }
        self.total_latency += latency;
        latency
    }

    /// Reads up to 8 bytes with cache-timing accounting.
    pub fn read_u64(&mut self, addr: u64, size: u8, domain: Domain) -> Result<(u64, u64)> {
        let latency = self.access_timed(addr, domain, false);
        let value = self.dram.read_u64(addr, size)?;
        Ok((value, latency))
    }

    /// Writes up to 8 bytes with cache-timing accounting.
    pub fn write_u64(&mut self, addr: u64, size: u8, value: u64, domain: Domain) -> Result<u64> {
        let latency = self.access_timed(addr, domain, true);
        self.dram.write_u64(addr, size, value)?;
        Ok(latency)
    }

    /// Probes `addr` and reports only the latency, *without* touching DRAM
    /// contents. This is what the `probe` guest instruction maps to.
    pub fn probe(&mut self, addr: u64, domain: Domain) -> u64 {
        self.access_timed(addr, domain, false)
    }

    /// Flushes every cache level, returning the number of lines dropped.
    pub fn flush_all(&mut self) -> usize {
        self.l1.flush() + self.l2.flush() + self.l3.flush()
    }

    /// Total number of valid lines across all levels.
    pub fn occupancy(&self) -> usize {
        self.l1.occupancy() + self.l2.occupancy() + self.l3.occupancy()
    }

    /// Statistics snapshot across all levels.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            l3: self.l3.stats(),
            accesses: self.accesses,
            total_latency: self.total_latency,
        }
    }

    /// Sum of cross-domain evictions across all levels — the side-channel
    /// signal measured by experiment E1.
    pub fn cross_domain_evictions(&self) -> u64 {
        self.l1.stats().cross_domain_evictions
            + self.l2.stats().cross_domain_evictions
            + self.l3.stats().cross_domain_evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        Hierarchy::new(
            HierarchyConfig {
                l1: CacheConfig {
                    sets: 4,
                    ways: 2,
                    line_size: 64,
                    hit_latency: 2,
                },
                l2: CacheConfig {
                    sets: 16,
                    ways: 4,
                    line_size: 64,
                    hit_latency: 12,
                },
                l3: CacheConfig {
                    sets: 64,
                    ways: 8,
                    line_size: 64,
                    hit_latency: 40,
                },
                dram_latency: 200,
            },
            1 << 20,
        )
    }

    #[test]
    fn cold_access_pays_dram_latency_then_hits_in_l1() {
        let mut h = small();
        let cold = h.probe(0x1000, Domain::Model);
        assert_eq!(cold, 2 + 12 + 40 + 200);
        let warm = h.probe(0x1000, Domain::Model);
        assert_eq!(warm, 2);
    }

    #[test]
    fn read_write_round_trip_with_latency() {
        let mut h = small();
        let lat_w = h.write_u64(0x2000, 8, 0xABCD, Domain::Model).unwrap();
        assert!(lat_w > 200);
        let (v, lat_r) = h.read_u64(0x2000, 8, Domain::Model).unwrap();
        assert_eq!(v, 0xABCD);
        assert_eq!(lat_r, 2);
    }

    #[test]
    fn flush_forces_misses_again() {
        let mut h = small();
        h.probe(0x3000, Domain::Model);
        assert_eq!(h.probe(0x3000, Domain::Model), 2);
        let dropped = h.flush_all();
        assert!(dropped >= 3);
        assert!(h.probe(0x3000, Domain::Model) > 200);
    }

    #[test]
    fn cross_domain_evictions_visible_in_shared_hierarchy() {
        let mut h = small();
        // Model primes one L1 set completely (set stride 256 bytes, 2 ways).
        h.probe(0x0000, Domain::Model);
        h.probe(0x0100, Domain::Model);
        // Hypervisor touches a conflicting line.
        h.probe(0x0200, Domain::Hypervisor);
        assert!(h.cross_domain_evictions() >= 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut h = small();
        for i in 0..10 {
            h.probe(i * 64, Domain::Model);
        }
        let s = h.stats();
        assert_eq!(s.accesses, 10);
        assert!(s.total_latency > 0);
        assert_eq!(s.l1.misses, 10);
    }
}
