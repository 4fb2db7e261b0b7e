//! Packet-level network simulation with link severance.
//!
//! The physical hypervisor's kill switches (§3.4) include "electromechanical
//! disconnection of a datacenter's network cables"; for that to mean anything
//! the network model must actually stop delivering packets when a link is
//! severed. Links also model latency and loss so the heartbeat experiment
//! (E7) can measure detection latency and false positives under lossy
//! conditions.

use guillotine_types::{DetRng, GuillotineError, Result, SimDuration, SimInstant};
use std::collections::{BTreeMap, VecDeque};

/// Configuration of the simulated network.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// One-way link latency.
    pub latency: SimDuration,
    /// Probability in `[0, 1]` that any given packet is lost.
    pub loss_probability: f64,
    /// RNG seed for loss decisions.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            latency: SimDuration::from_micros(50),
            loss_probability: 0.0,
            seed: 0xC0FFEE,
        }
    }
}

/// The administrative state of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// The cable is connected and passing traffic.
    Connected,
    /// The cable has been electromechanically disconnected; it can be
    /// reconnected remotely (offline isolation).
    Disconnected,
    /// The cable has been physically destroyed and must be replaced by hand
    /// (decapitation/immolation).
    Destroyed,
}

/// A packet in flight or delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Sending node name.
    pub from: String,
    /// Receiving node name.
    pub to: String,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// When the packet was sent.
    pub sent_at: SimInstant,
    /// When the packet arrives (sent_at + latency).
    pub deliver_at: SimInstant,
}

#[derive(Debug, Clone)]
struct Link {
    a: String,
    b: String,
    state: LinkState,
}

/// Per-network delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Packets accepted for transmission.
    pub sent: u64,
    /// Packets delivered to their destination queue.
    pub delivered: u64,
    /// Packets dropped by random loss.
    pub lost: u64,
    /// Packets dropped because the path was severed or missing.
    pub blocked: u64,
    /// Packets that were already in flight when their link was severed or
    /// destroyed, and were dropped instead of delivered across the cut.
    pub dropped_in_flight: u64,
    /// Extra copies injected by packet duplication (chaos fault).
    pub duplicated: u64,
}

/// A small star/mesh network between named nodes.
#[derive(Debug, Clone)]
pub struct Network {
    config: NetworkConfig,
    links: Vec<Link>,
    in_flight: Vec<Packet>,
    inboxes: BTreeMap<String, VecDeque<Packet>>,
    stats: NetworkStats,
    rng: DetRng,
    /// Probability in `[0, 1]` that a sent packet is duplicated in flight
    /// (a misbehaving switch; injected by the chaos engine).
    duplication_probability: f64,
}

impl Network {
    /// Creates an empty network.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            links: Vec::new(),
            in_flight: Vec::new(),
            inboxes: BTreeMap::new(),
            stats: NetworkStats::default(),
            rng: DetRng::seed(config.seed),
            duplication_probability: 0.0,
            config,
        }
    }

    /// Changes the link loss probability at runtime (heartbeat-loss chaos
    /// fault). Clamped to `[0, 1]`.
    pub fn set_loss_probability(&mut self, p: f64) {
        self.config.loss_probability = p.clamp(0.0, 1.0);
    }

    /// Sets the probability that a sent packet is duplicated in flight
    /// (packet-duplication chaos fault). Clamped to `[0, 1]`.
    pub fn set_duplication(&mut self, p: f64) {
        self.duplication_probability = p.clamp(0.0, 1.0);
    }

    /// Adds a node (creates its inbox).
    pub fn add_node(&mut self, name: &str) {
        self.inboxes.entry(name.to_string()).or_default();
    }

    /// Connects two nodes with a cable.
    pub fn add_link(&mut self, a: &str, b: &str) {
        self.add_node(a);
        self.add_node(b);
        self.links.push(Link {
            a: a.to_string(),
            b: b.to_string(),
            state: LinkState::Connected,
        });
    }

    fn link_index(&self, a: &str, b: &str) -> Option<usize> {
        self.links
            .iter()
            .position(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
    }

    /// The state of the link between `a` and `b` (if one exists).
    pub fn link_state(&self, a: &str, b: &str) -> Option<LinkState> {
        self.link_index(a, b).map(|i| self.links[i].state)
    }

    fn link_connected(&self, a: &str, b: &str) -> bool {
        matches!(self.link_state(a, b), Some(LinkState::Connected))
    }

    /// Drops (and counts) every in-flight packet whose link is no longer
    /// `Connected`. Severing a cable must kill the photons already on it:
    /// called by every disconnect/destroy path, and re-checked at delivery
    /// time, so a packet never crosses a cut link.
    fn drop_severed_in_flight(&mut self) {
        let mut kept = Vec::with_capacity(self.in_flight.len());
        let mut dropped = 0u64;
        for p in std::mem::take(&mut self.in_flight) {
            if self.link_connected(&p.from, &p.to) {
                kept.push(p);
            } else {
                dropped += 1;
            }
        }
        self.in_flight = kept;
        self.stats.dropped_in_flight += dropped;
    }

    /// Electromechanically disconnects the link (reversible).
    pub fn disconnect_link(&mut self, a: &str, b: &str) -> Result<()> {
        let idx = self
            .link_index(a, b)
            .ok_or_else(|| GuillotineError::NetworkError {
                reason: format!("no link between {a} and {b}"),
            })?;
        if self.links[idx].state == LinkState::Destroyed {
            return Err(GuillotineError::Destroyed {
                reason: "link already destroyed".into(),
            });
        }
        self.links[idx].state = LinkState::Disconnected;
        self.drop_severed_in_flight();
        Ok(())
    }

    /// Reconnects a disconnected link.
    pub fn reconnect_link(&mut self, a: &str, b: &str) -> Result<()> {
        let idx = self
            .link_index(a, b)
            .ok_or_else(|| GuillotineError::NetworkError {
                reason: format!("no link between {a} and {b}"),
            })?;
        match self.links[idx].state {
            LinkState::Destroyed => Err(GuillotineError::Destroyed {
                reason: "destroyed links must be physically replaced".into(),
            }),
            _ => {
                self.links[idx].state = LinkState::Connected;
                Ok(())
            }
        }
    }

    /// Physically destroys the link; only [`Network::replace_link`] can bring
    /// it back.
    pub fn destroy_link(&mut self, a: &str, b: &str) -> Result<()> {
        let idx = self
            .link_index(a, b)
            .ok_or_else(|| GuillotineError::NetworkError {
                reason: format!("no link between {a} and {b}"),
            })?;
        self.links[idx].state = LinkState::Destroyed;
        self.drop_severed_in_flight();
        Ok(())
    }

    /// Replaces a destroyed cable with a new one (manual intervention).
    pub fn replace_link(&mut self, a: &str, b: &str) -> Result<()> {
        let idx = self
            .link_index(a, b)
            .ok_or_else(|| GuillotineError::NetworkError {
                reason: format!("no link between {a} and {b}"),
            })?;
        self.links[idx].state = LinkState::Connected;
        Ok(())
    }

    /// Disconnects every link touching `node` (a machine-level kill switch).
    pub fn disconnect_node(&mut self, node: &str) -> usize {
        let mut n = 0;
        for link in &mut self.links {
            if (link.a == node || link.b == node) && link.state == LinkState::Connected {
                link.state = LinkState::Disconnected;
                n += 1;
            }
        }
        self.drop_severed_in_flight();
        n
    }

    /// Destroys every link touching `node`.
    pub fn destroy_node_links(&mut self, node: &str) -> usize {
        let mut n = 0;
        for link in &mut self.links {
            if (link.a == node || link.b == node) && link.state != LinkState::Destroyed {
                link.state = LinkState::Destroyed;
                n += 1;
            }
        }
        self.drop_severed_in_flight();
        n
    }

    /// Sends a packet; it will be delivered after the configured latency if
    /// the direct link is connected and the loss dice cooperate.
    pub fn send(&mut self, from: &str, to: &str, payload: Vec<u8>, now: SimInstant) -> Result<()> {
        self.stats.sent += 1;
        // Route only over `Connected` links, but report *why* the path is
        // unusable: a chaos trace must tell a reversible partition
        // (disconnected) from a guillotined cable (destroyed).
        let state = self.link_index(from, to).map(|i| self.links[i].state);
        if state != Some(LinkState::Connected) {
            self.stats.blocked += 1;
            let reason = match state {
                None => format!("no link between {from} and {to}"),
                Some(LinkState::Disconnected) => {
                    format!("link from {from} to {to} is disconnected (partition)")
                }
                // `Connected` cannot reach this arm; fold it in for
                // exhaustiveness without a panic path.
                Some(LinkState::Destroyed) | Some(LinkState::Connected) => {
                    format!("link from {from} to {to} is destroyed (guillotined)")
                }
            };
            return Err(GuillotineError::NetworkError { reason });
        }
        if self.rng.chance(self.config.loss_probability) {
            self.stats.lost += 1;
            // Loss is silent to the sender, as on a real network.
            return Ok(());
        }
        let packet = Packet {
            from: from.to_string(),
            to: to.to_string(),
            payload,
            sent_at: now,
            deliver_at: now + self.config.latency,
        };
        if self.duplication_probability > 0.0 && self.rng.chance(self.duplication_probability) {
            self.stats.duplicated += 1;
            self.in_flight.push(packet.clone());
        }
        self.in_flight.push(packet);
        Ok(())
    }

    /// Moves packets whose delivery time has arrived into their inboxes.
    /// A packet whose link was severed or destroyed while it was in flight
    /// is dropped (and counted), never delivered across the cut.
    pub fn advance_to(&mut self, now: SimInstant) {
        let mut remaining = Vec::with_capacity(self.in_flight.len());
        for p in std::mem::take(&mut self.in_flight) {
            if p.deliver_at > now {
                remaining.push(p);
            } else if self.link_connected(&p.from, &p.to) {
                self.stats.delivered += 1;
                self.inboxes.entry(p.to.clone()).or_default().push_back(p);
            } else {
                self.stats.dropped_in_flight += 1;
            }
        }
        self.in_flight = remaining;
    }

    /// Pops the next delivered packet for `node`.
    pub fn receive(&mut self, node: &str) -> Option<Packet> {
        self.inboxes.get_mut(node).and_then(|q| q.pop_front())
    }

    /// Delivery statistics.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimInstant {
        SimInstant::from_nanos(ns)
    }

    fn net() -> Network {
        let mut n = Network::new(NetworkConfig {
            latency: SimDuration::from_nanos(100),
            loss_probability: 0.0,
            seed: 1,
        });
        n.add_link("console", "machine0");
        n
    }

    #[test]
    fn packets_deliver_after_latency() {
        let mut n = net();
        n.send("console", "machine0", b"hb".to_vec(), t(0)).unwrap();
        n.advance_to(t(50));
        assert!(n.receive("machine0").is_none());
        n.advance_to(t(100));
        let p = n.receive("machine0").unwrap();
        assert_eq!(p.payload, b"hb");
        assert_eq!(n.stats().delivered, 1);
    }

    #[test]
    fn disconnected_links_block_traffic_and_reconnect() {
        let mut n = net();
        n.disconnect_link("console", "machine0").unwrap();
        assert!(n.send("console", "machine0", vec![], t(0)).is_err());
        assert_eq!(n.stats().blocked, 1);
        n.reconnect_link("console", "machine0").unwrap();
        assert!(n.send("console", "machine0", vec![], t(1)).is_ok());
    }

    #[test]
    fn destroyed_links_cannot_be_reconnected_remotely() {
        let mut n = net();
        n.destroy_link("console", "machine0").unwrap();
        assert!(n.reconnect_link("console", "machine0").is_err());
        assert!(n.send("console", "machine0", vec![], t(0)).is_err());
        n.replace_link("console", "machine0").unwrap();
        assert!(n.send("console", "machine0", vec![], t(0)).is_ok());
    }

    #[test]
    fn node_level_disconnection_severs_all_cables() {
        let mut n = net();
        n.add_link("machine0", "internet");
        let cut = n.disconnect_node("machine0");
        assert_eq!(cut, 2);
        assert!(n.send("machine0", "internet", vec![], t(0)).is_err());
        assert!(n.send("console", "machine0", vec![], t(0)).is_err());
    }

    #[test]
    fn lossy_links_drop_roughly_the_configured_fraction() {
        let mut n = Network::new(NetworkConfig {
            latency: SimDuration::from_nanos(10),
            loss_probability: 0.3,
            seed: 7,
        });
        n.add_link("a", "b");
        for i in 0..10_000u64 {
            let _ = n.send("a", "b", vec![], t(i));
        }
        let lost = n.stats().lost as f64 / 10_000.0;
        assert!((0.25..0.35).contains(&lost), "loss fraction {lost}");
    }

    #[test]
    fn unknown_path_is_an_error() {
        let mut n = net();
        assert!(n.send("console", "nowhere", vec![], t(0)).is_err());
    }

    /// Regression: a packet already in flight when its link is severed must
    /// be dropped (and counted), not delivered across the cut by a later
    /// `advance_to`.
    #[test]
    fn severing_a_link_drops_in_flight_packets() {
        let mut n = net();
        n.send("console", "machine0", b"hb".to_vec(), t(0)).unwrap();
        n.disconnect_link("console", "machine0").unwrap();
        n.advance_to(t(1_000));
        assert!(n.receive("machine0").is_none(), "delivered across a cut");
        assert_eq!(n.stats().delivered, 0);
        assert_eq!(n.stats().dropped_in_flight, 1);
    }

    /// Same regression at node scope: `disconnect_node` / destroy paths
    /// purge the in-flight set too, and a cut mid-flight (between send and
    /// advance) is caught at delivery time.
    #[test]
    fn node_disconnection_drops_in_flight_packets() {
        let mut n = net();
        n.add_link("machine0", "internet");
        n.send("console", "machine0", b"a".to_vec(), t(0)).unwrap();
        n.send("machine0", "internet", b"b".to_vec(), t(0)).unwrap();
        n.disconnect_node("machine0");
        n.advance_to(t(1_000));
        assert!(n.receive("machine0").is_none());
        assert!(n.receive("internet").is_none());
        assert_eq!(n.stats().dropped_in_flight, 2);

        let mut d = net();
        d.send("console", "machine0", b"c".to_vec(), t(0)).unwrap();
        assert_eq!(d.destroy_node_links("machine0"), 1);
        d.advance_to(t(1_000));
        assert!(d.receive("machine0").is_none());
        assert_eq!(d.stats().dropped_in_flight, 1);
    }

    /// Partition and guillotine must be distinguishable in the send error,
    /// so chaos traces can tell which fault blocked a heartbeat.
    #[test]
    fn send_errors_distinguish_disconnected_from_destroyed() {
        let mut n = net();
        n.disconnect_link("console", "machine0").unwrap();
        let partition = n
            .send("console", "machine0", vec![], t(0))
            .unwrap_err()
            .to_string();
        assert!(partition.contains("disconnected"), "{partition}");

        let mut d = net();
        d.destroy_link("console", "machine0").unwrap();
        let guillotined = d
            .send("console", "machine0", vec![], t(0))
            .unwrap_err()
            .to_string();
        assert!(guillotined.contains("destroyed"), "{guillotined}");
        assert!(!guillotined.contains("disconnected"), "{guillotined}");
    }

    #[test]
    fn duplication_injects_extra_copies() {
        let mut n = net();
        n.set_duplication(1.0);
        n.send("console", "machine0", b"dup".to_vec(), t(0))
            .unwrap();
        n.advance_to(t(1_000));
        assert!(n.receive("machine0").is_some());
        assert!(n.receive("machine0").is_some(), "duplicate not delivered");
        assert!(n.receive("machine0").is_none());
        assert_eq!(n.stats().duplicated, 1);
        assert_eq!(n.stats().delivered, 2);
    }

    #[test]
    fn loss_probability_is_runtime_adjustable() {
        let mut n = net();
        n.set_loss_probability(1.0);
        n.send("console", "machine0", vec![], t(0)).unwrap();
        assert_eq!(n.stats().lost, 1);
        n.set_loss_probability(0.0);
        n.send("console", "machine0", vec![], t(1)).unwrap();
        assert_eq!(n.stats().lost, 1);
    }
}
