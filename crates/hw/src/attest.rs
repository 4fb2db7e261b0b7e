//! Remote attestation of Guillotine silicon and hypervisor software.
//!
//! The paper (§3.2) requires that "before a model is loaded onto a purported
//! Guillotine system via the control terminal, the terminal will verify that
//! the model is being sent to valid Guillotine silicon that runs a valid
//! Guillotine software-level hypervisor". This module provides measurement
//! registers (PCR-style), quote generation and quote verification.
//!
//! The hash used is a simple 64-bit Merkle–Damgård construction over a mixing
//! function (FNV/xorshift style). It is **not** cryptographically secure; it
//! stands in for a real hash+signature scheme because the workspace
//! deliberately avoids external cryptography crates. The protocol structure —
//! what gets measured, what a quote contains, what verification checks — is
//! faithful to the paper's intent.

/// A 64-bit measurement digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement(pub u64);

impl Measurement {
    /// The all-zero measurement (nothing extended yet).
    pub const ZERO: Measurement = Measurement(0);

    /// Hashes a byte slice into a measurement.
    pub fn of(data: &[u8]) -> Measurement {
        Measurement(mix_bytes(0xcbf2_9ce4_8422_2325, data))
    }

    /// Extends this measurement with new data (PCR-extend semantics: the
    /// result depends on the order of every extension).
    pub fn extend(self, data: &[u8]) -> Measurement {
        Measurement(mix_bytes(self.0 ^ 0x9e37_79b9_7f4a_7c15, data))
    }
}

fn mix_bytes(mut state: u64, data: &[u8]) -> u64 {
    for &b in data {
        state ^= b as u64;
        state = state.wrapping_mul(0x100_0000_01b3);
        state ^= state >> 29;
        state = state.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        state ^= state >> 32;
    }
    state
}

/// A signed attestation quote describing the platform state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationQuote {
    /// Measurement of the silicon (core counts, bus wiring, throttle config).
    pub silicon: Measurement,
    /// Measurement of the loaded software hypervisor image.
    pub hypervisor: Measurement,
    /// Measurement of the locked executable region layout of the model.
    pub model_layout: Measurement,
    /// Nonce supplied by the verifier (anti-replay).
    pub nonce: u64,
    /// Signature over the above by the attestation module's device key.
    pub signature: u64,
}

/// The attestation module fused into Guillotine silicon.
#[derive(Debug, Clone)]
pub struct AttestationModule {
    device_key: u64,
    silicon: Measurement,
    hypervisor: Measurement,
    model_layout: Measurement,
}

impl AttestationModule {
    /// Creates a module with a device key (burned in at manufacture) and the
    /// silicon measurement.
    pub fn new(device_key: u64, silicon_description: &[u8]) -> Self {
        AttestationModule {
            device_key,
            silicon: Measurement::of(silicon_description),
            hypervisor: Measurement::ZERO,
            model_layout: Measurement::ZERO,
        }
    }

    /// Records the measurement of the hypervisor image as it is loaded.
    pub fn measure_hypervisor(&mut self, image: &[u8]) {
        self.hypervisor = self.hypervisor.extend(image);
    }

    /// Records the measurement of the model's locked executable layout.
    pub fn measure_model_layout(&mut self, locked_pages: &[u64]) {
        let mut bytes = Vec::with_capacity(locked_pages.len() * 8);
        for p in locked_pages {
            bytes.extend_from_slice(&p.to_le_bytes());
        }
        self.model_layout = self.model_layout.extend(&bytes);
    }

    /// Current silicon measurement.
    pub fn silicon_measurement(&self) -> Measurement {
        self.silicon
    }

    /// Current hypervisor measurement.
    pub fn hypervisor_measurement(&self) -> Measurement {
        self.hypervisor
    }

    fn sign(&self, quote_body: u64, nonce: u64) -> u64 {
        mix_bytes(
            self.device_key,
            &[quote_body.to_le_bytes(), nonce.to_le_bytes()].concat(),
        )
    }

    /// Produces a quote bound to the verifier-supplied `nonce`.
    pub fn quote(&self, nonce: u64) -> AttestationQuote {
        let body = self.silicon.0
            ^ self.hypervisor.0.rotate_left(17)
            ^ self.model_layout.0.rotate_left(34);
        AttestationQuote {
            silicon: self.silicon,
            hypervisor: self.hypervisor,
            model_layout: self.model_layout,
            nonce,
            signature: self.sign(body, nonce),
        }
    }

    /// Verifies a quote against expected measurements, the shared device key
    /// registry and the nonce the verifier chose.
    pub fn verify(
        device_key: u64,
        quote: &AttestationQuote,
        expected_silicon: Measurement,
        expected_hypervisor: Measurement,
        nonce: u64,
    ) -> bool {
        if quote.nonce != nonce {
            return false;
        }
        if quote.silicon != expected_silicon || quote.hypervisor != expected_hypervisor {
            return false;
        }
        let body = quote.silicon.0
            ^ quote.hypervisor.0.rotate_left(17)
            ^ quote.model_layout.0.rotate_left(34);
        let expected_sig = mix_bytes(
            device_key,
            &[body.to_le_bytes(), nonce.to_le_bytes()].concat(),
        );
        expected_sig == quote.signature
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> AttestationModule {
        let mut m = AttestationModule::new(0xDEADBEEF, b"guillotine silicon v1");
        m.measure_hypervisor(b"hypervisor image v1");
        m.measure_model_layout(&[1, 2, 3]);
        m
    }

    #[test]
    fn quote_verifies_with_correct_expectations() {
        let m = module();
        let quote = m.quote(777);
        assert!(AttestationModule::verify(
            0xDEADBEEF,
            &quote,
            Measurement::of(b"guillotine silicon v1"),
            Measurement::ZERO.extend(b"hypervisor image v1"),
            777
        ));
    }

    #[test]
    fn wrong_nonce_fails() {
        let m = module();
        let quote = m.quote(777);
        assert!(!AttestationModule::verify(
            0xDEADBEEF,
            &quote,
            Measurement::of(b"guillotine silicon v1"),
            Measurement::ZERO.extend(b"hypervisor image v1"),
            778
        ));
    }

    #[test]
    fn wrong_hypervisor_image_fails() {
        let mut m = AttestationModule::new(1, b"silicon");
        m.measure_hypervisor(b"tampered hypervisor");
        let quote = m.quote(1);
        assert!(!AttestationModule::verify(
            1,
            &quote,
            Measurement::of(b"silicon"),
            Measurement::ZERO.extend(b"hypervisor image v1"),
            1
        ));
    }

    #[test]
    fn forged_signature_fails() {
        let m = module();
        let mut quote = m.quote(5);
        quote.signature ^= 1;
        assert!(!AttestationModule::verify(
            0xDEADBEEF,
            &quote,
            Measurement::of(b"guillotine silicon v1"),
            Measurement::ZERO.extend(b"hypervisor image v1"),
            5
        ));
    }

    #[test]
    fn measurements_are_order_sensitive() {
        let a = Measurement::ZERO.extend(b"one").extend(b"two");
        let b = Measurement::ZERO.extend(b"two").extend(b"one");
        assert_ne!(a, b);
        assert_ne!(Measurement::of(b"x"), Measurement::of(b"y"));
    }
}
